(* The FPGA offload the capture runs.

   Patchwork compiles its capture pre-processing (sample / truncate)
   onto the Alveo NIC as a P4 program; the host's DPDK writer then
   stores only what the NIC forwards.  The capture applies the user's
   filter and anonymization to every capture method alike, so the
   program sees only the frames the filter passed and keeps the 0th,
   Nth, 2Nth, ... of them: its verdict is a stride counter
   (Hostmodel.Fpga_path).  It cuts each frame at the capture's one snap
   length, Config.truncation.  This example captures a mixed TLS / SSH /
   DNS / iperf3 stream through that offload, as a weekly sample does
   (Capture.materialize), and counts what each stage keeps.

   Run with: dune exec examples/offload_pipeline.exe *)

module Config = Patchwork.Config

let () =
  let filter_expr = "tcp and port 443 and not vlan 999" in
  let filter =
    match Packet.Filter.parse filter_expr with
    | Ok f -> f
    | Error m -> failwith m
  in
  let sample_1_in = 4 and truncation = 128 in
  Printf.printf "capturing %S through the FPGA offload (1 in %d, %d B)...\n"
    filter_expr sample_1_in truncation;
  (* A mixed stream: TLS flows we want, other traffic we don't, one flow
     per (service, VLAN) at about 800 frames per second. *)
  let rng = Netcore.Rng.create 9 in
  let specs =
    List.mapi
      (fun i (service, vlan_id) ->
        let template =
          Traffic.Stack_builder.forward rng
            {
              Traffic.Stack_builder.vlan_id;
              mpls_labels = [ 48000 ];
              use_pseudowire = false;
              use_vxlan = false;
              use_ipv6 = false;
              service = Option.get (Dissect.Services.by_name service);
            }
        in
        Traffic.Flow_model.make ~flow_id:i ~template
          ~frame_size:(Netcore.Dist.Uniform (64.0, 1464.0))
          ~avg_frame_size:764.0 ~byte_rate:(800.0 *. 764.0) ~start_time:0.0
          ~duration:60.0 ())
      [ ("tls", 100); ("tls", 999); ("ssh", 100); ("dns", 100); ("iperf3", 100) ]
  in
  (* One second of the stream, captured three times from the same seed:
     every frame, the frames the filter passes, and what the offload
     forwards after that filter, with addresses anonymized. *)
  let capture config =
    (Patchwork.Capture.materialize ~config ~rng:(Netcore.Rng.create 4000) ~fraction:1.0
       ~start_time:0.0 ~end_time:1.0 specs)
      .Patchwork.Capture.records
  in
  let offered = capture Config.default in
  let filtered = capture { Config.default with Config.filter } in
  let forwarded =
    capture
      {
        Config.default with
        Config.filter;
        anonymize = true;
        truncation;
        capture_method = Config.Fpga_dpdk { cores = 2; sample_1_in };
      }
  in
  Printf.printf "offered %d frames; the filter passes %d\n" (List.length offered)
    (List.length filtered);
  let bytes =
    List.fold_left
      (fun n (r : Dissect.Acap.record) ->
        n + min r.Dissect.Acap.orig_len truncation)
      0 forwarded
  in
  Printf.printf "forwarded %d frames (%d bytes) to the host DPDK writer\n"
    (List.length forwarded) bytes;
  (* The host sees 1 in 4 of the matching frames, truncated to 128 B,
     with anonymized addresses: *)
  Printf.printf "\nhost-side relief vs raw mirror: %.1f%% of frames, <=%d B each\n"
    (100.0 *. float_of_int (List.length forwarded) /. float_of_int (List.length offered))
    truncation
