(* Reference implementations the library's fast paths are checked
   against, shared across test modules. *)

(* The copying decode: every packet is copied out of the capture buffer
   and dissected from the copy.  The sliced digest must reproduce it
   record for record. *)
let acaps_copying buf =
  List.map Dissect.Acap.of_packet (Packet.Pcapng.read_any buf)

(* The per-frame capture: every draw of [Flow_model.frames_in_window] is
   built as a frame, then filtered, offloaded, anonymized, written and
   abstracted on its own.  [Capture.materialize] abstracts one frame per
   flow class instead and must reproduce its records, pcap bytes and RNG
   state. *)
let materialize_per_frame ~(config : Patchwork.Config.t) ~rng ~fraction
    ~start_time ~end_time specs =
  let module Flow_model = Traffic.Flow_model in
  let fpga_process =
    match config.Patchwork.Config.capture_method with
    | Patchwork.Config.Fpga_dpdk { fpga; _ } ->
      Some (fst (Hostmodel.Fpga_path.create fpga ()))
    | Patchwork.Config.Tcpdump | Patchwork.Config.Dpdk _ -> None
  in
  let anonymizer =
    if config.Patchwork.Config.anonymize then
      Some (Hostmodel.Anonymize.create ~key:97)
    else None
  in
  let pcap_writer =
    if config.Patchwork.Config.emit_pcap then
      Some (Packet.Pcap.Writer.create ~snaplen:config.Patchwork.Config.truncation ())
    else None
  in
  let acaps = ref [] in
  List.iter
    (fun spec ->
      let scaled =
        { spec with Flow_model.byte_rate = spec.Flow_model.byte_rate *. fraction }
      in
      let frames = Flow_model.frames_in_window scaled rng ~start_time ~end_time in
      List.iter
        (fun (ts, frame) ->
          if Packet.Filter.matches config.Patchwork.Config.filter frame then begin
            let frame =
              match fpga_process with
              | Some process -> process frame
              | None -> Some frame
            in
            match frame with
            | None -> ()
            | Some frame ->
              let frame =
                match anonymizer with
                | Some anon -> Hostmodel.Anonymize.frame anon frame
                | None -> frame
              in
              (match pcap_writer with
              | Some w -> Packet.Pcap.Writer.add_frame w ~ts frame
              | None -> ());
              acaps := Dissect.Acap.of_frame ~ts frame :: !acaps
          end)
        frames)
    specs;
  ( List.sort (fun a b -> compare a.Dissect.Acap.ts b.Dissect.Acap.ts) !acaps,
    Option.map Packet.Pcap.Writer.contents pcap_writer )
