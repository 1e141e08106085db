(* Quickstart: profile your own experiment (single-experiment mode).

   A researcher runs an iperf-style transfer between two of their VMs
   and wants to see what their traffic looks like on the wire.  We
   create the federation, attach the researcher's flow to the switch
   ports their slice uses, and run Patchwork in single-experiment mode
   against exactly those ports.  The captures come back as both acap
   records and a real pcap file.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A simulated federation; on real FABRIC this is the testbed itself. *)
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:42 engine in
  let driver = Traffic.Driver.create fabric ~seed:42 in
  let site =
    (List.hd (Testbed.Info_model.profilable_sites (Testbed.Fablib.model fabric)))
      .Testbed.Info_model.name
  in
  (* "My slice": two VMs on this site exchanging a 2 Gbps TCP stream. *)
  let my_ports =
    match Testbed.Fablib.downlink_ports fabric ~site with
    | a :: b :: _ -> [ a; b ]
    | _ -> failwith "site too small"
  in
  Printf.printf "my slice: site %s, ports %s\n" site
    (String.concat ", " (List.map string_of_int my_ports));
  let rng = Netcore.Rng.create 1 in
  let template =
    Traffic.Stack_builder.forward rng
      {
        Traffic.Stack_builder.vlan_id = 1234;
        mpls_labels = [ 400100 ];
        use_pseudowire = false;
        use_vxlan = false;
        use_ipv6 = false;
        service = Option.get (Dissect.Services.by_name "iperf3");
      }
  in
  let spec =
    Traffic.Flow_model.make ~flow_id:999_000 ~template
      ~frame_size:(Netcore.Dist.Empirical [| (0.9, 1948.0); (0.1, 66.0) |])
      ~avg_frame_size:1760.0
      ~byte_rate:(2e9 /. 8.0)
      ~start_time:0.0 ~duration:86400.0 ()
  in
  let sw = Testbed.Fablib.switch fabric ~site in
  let src, dst = (List.nth my_ports 0, List.nth my_ports 1) in
  Testbed.Switch.attach_flow sw ~port:src ~dir:Testbed.Switch.Rx
    ~byte_rate:spec.Traffic.Flow_model.byte_rate
    ~frame_rate:(Traffic.Flow_model.frame_rate spec) ~flow:999_000;
  Testbed.Switch.attach_flow sw ~port:dst ~dir:Testbed.Switch.Tx
    ~byte_rate:spec.Traffic.Flow_model.byte_rate
    ~frame_rate:(Traffic.Flow_model.frame_rate spec) ~flow:999_000;
  let resolver flow =
    if flow = 999_000 then Some spec else Traffic.Driver.resolver driver flow
  in
  (* Patchwork in single-experiment mode over my ports, with pcap
     output and a capture filter for my TCP stream only. *)
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.mode = Patchwork.Config.Single_experiment [ (site, my_ports) ];
      port_selection = Patchwork.Config.Fixed_ports my_ports;
      samples_per_run = 3;
      emit_pcap = true;
      max_frames_per_sample = 3_000;
      filter =
        (match Packet.Filter.parse "tcp and vlan 1234" with
        | Ok f -> f
        | Error m -> failwith m);
    }
  in
  (* run_occasion uses the traffic driver's resolver; wrap it so our
     hand-made flow resolves too by sampling captures directly. *)
  Testbed.Fablib.start_telemetry ~until:3600.0 fabric;
  Simcore.Engine.run ~until:601.0 engine;
  (match Testbed.Switch.add_mirror sw ~src_port:src ~dirs:Testbed.Switch.Both
           ~dst_port:(List.nth (Testbed.Fablib.downlink_ports fabric ~site) 2)
   with
  | Error m -> failwith m
  | Ok mirror ->
    let sample =
      Patchwork.Capture.run ~fabric ~resolver ~config ~rng:(Netcore.Rng.create 2)
        ~site ~mirror ~mirrored_port:src
    in
    Printf.printf "captured %d frames in a %.0fs sample (%.1f%% of offered)\n"
      (List.length sample.Patchwork.Capture.acaps)
      sample.Patchwork.Capture.sample_duration
      (100.0 *. sample.Patchwork.Capture.materialized_fraction);
    (* Write the pcap; tcpdump/Wireshark can open this file. *)
    (match sample.Patchwork.Capture.pcap with
    | Some buf ->
      let path = Filename.temp_file "quickstart" ".pcap" in
      let oc = open_out_bin path in
      output_bytes oc buf;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (Bytes.length buf)
    | None -> ());
    (* Inspect the traffic composition. *)
    let occ = Analysis.Analyze.occurrence sample.Patchwork.Capture.acaps in
    print_endline "traffic composition:";
    List.iter
      (fun (tok, pct) -> Printf.printf "  %-8s %6.1f%%\n" tok pct)
      occ;
    let h = Analysis.Analyze.frame_size_histogram sample.Patchwork.Capture.acaps in
    print_endline "frame sizes:";
    Array.iteri
      (fun i c ->
        if c > 0 then
          Printf.printf "  %-16s %d\n" (Netcore.Histogram.bin_label h i) c)
      (Netcore.Histogram.counts h))
