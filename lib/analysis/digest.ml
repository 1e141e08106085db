(* The zero-copy decode path.  One sequential walk over record headers
   (Pcapng.fold_any) hands each record's offset and length in the
   capture buffer to the dissector, which reads the frame's headers
   where they sit onto a reused tape; per-packet allocation is bounded
   by the abstract output, never by payload sizes.  Each frame is
   dissected into one reused Acap.Fields, which the fold hands straight
   to its consumer; the record path is the fold building one record
   per frame. *)

(* Decode counters are bumped once per capture (never per packet), so
   the registry costs the decode a bounded number of words per frame:
   the [gates] case "decode registry overhead" holds it under 0.25. *)
let obs_packets =
  Obs.Registry.counter Obs.Registry.default "packets_total"
    ~help:"Packets decoded by the offline digest"
    ~labels:[ ("stage", "digest") ]

let obs_capture_bytes =
  Obs.Registry.counter Obs.Registry.default "capture_bytes_total"
    ~help:"Capture-buffer bytes fed to the offline digest"

let count_decoded buf ~frames =
  if Obs.Registry.enabled () then begin
    Obs.Registry.inc obs_packets (float_of_int frames);
    Obs.Registry.inc obs_capture_bytes (float_of_int (Bytes.length buf))
  end

let fold_pcap buf ~init ~f =
  Obs.Span.timed ~stage:"digest.dissect" @@ fun () ->
  let fields = Dissect.Acap.Fields.create () in
  let frames = ref 0 in
  let acc =
    Packet.Pcapng.fold_any buf ~init ~f:(fun acc ~ts ~orig_len ~off ~cap_len ->
        incr frames;
        Dissect.Acap.Fields.dissect fields buf ~off ~cap_len ~orig_len;
        f acc fields ~orig_len ~ts)
  in
  count_decoded buf ~frames:!frames;
  acc

let pcap_to_acaps buf =
  List.rev
    (fold_pcap buf ~init:[] ~f:(fun acc fields ~orig_len ~ts ->
         Dissect.Acap.of_fields fields ~ts ~orig_len :: acc))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

let sample_acaps (sample : Patchwork.Capture.sample) =
  match sample.Patchwork.Capture.pcap with
  | Some buf -> pcap_to_acaps buf
  | None -> sample.Patchwork.Capture.acaps
