module Config = Patchwork.Config
module Port_cycling = Patchwork.Port_cycling
module Backoff = Patchwork.Backoff
module Logging = Patchwork.Logging
module Capture = Patchwork.Capture
module Instance = Patchwork.Instance
module Coordinator = Patchwork.Coordinator
module Fablib = Testbed.Fablib
module Switch = Testbed.Switch
module Allocator = Testbed.Allocator
module Info_model = Testbed.Info_model

(* --- Config --- *)

let test_config_default_valid () =
  match Config.validate Config.default with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_config_rejections () =
  let bad =
    [
      { Config.default with Config.sample_duration = 0.0 };
      { Config.default with Config.sample_interval = 1.0 };
      { Config.default with Config.samples_per_run = 0 };
      { Config.default with Config.truncation = 0 };
      { Config.default with Config.port_selection = Config.Busiest_bias 1 };
      { Config.default with Config.port_selection = Config.Fixed_ports [] };
      { Config.default with Config.capture_method = Config.Dpdk { cores = 0 } };
      (* An offload that samples 1 in 0 or forwards no byte. *)
      { Config.default with
        Config.capture_method =
          Config.Fpga_dpdk
            { cores = 2; fpga = { Hostmodel.Fpga_path.sample_1_in = 0; truncation = 200 } } };
      { Config.default with
        Config.capture_method =
          Config.Fpga_dpdk
            { cores = 2; fpga = { Hostmodel.Fpga_path.sample_1_in = 1; truncation = 0 } } };
    ]
  in
  List.iter
    (fun c ->
      match Config.validate c with
      | Ok () -> Alcotest.fail "invalid config accepted"
      | Error _ -> ())
    bad

(* --- Port cycling --- *)

let telemetry_with_rates rates =
  (* Build a telemetry store where port i of site "S" has the given
     byte rate. *)
  let engine = Simcore.Engine.create () in
  let sw = Testbed.Switch.create engine ~site_name:"S" ~ports:(List.length rates)
      ~line_rate:100e9
  in
  let tel = Testbed.Telemetry.create engine in
  Testbed.Telemetry.register_switch tel sw;
  List.iteri
    (fun port rate ->
      if rate > 0.0 then
        Testbed.Switch.attach_flow sw ~port ~dir:Testbed.Switch.Tx ~byte_rate:rate
          ~frame_rate:(rate /. 1000.0) ~flow:port)
    rates;
  Testbed.Telemetry.start ~until:1800.0 tel;
  Simcore.Engine.run ~until:1800.0 engine;
  tel

let test_cycling_fixed_round_robin () =
  let rng = Netcore.Rng.create 1 in
  let tel = telemetry_with_rates [ 0.0; 0.0; 0.0; 0.0 ] in
  let pc =
    Port_cycling.create (Config.Fixed_ports [ 1; 3 ]) ~rng ~site:"S"
      ~candidates:[ 0; 1; 2; 3 ] ~uplinks:[ 0 ]
  in
  let picks =
    List.init 4 (fun _ -> Port_cycling.next pc ~telemetry:tel ~window:1800.0 ~at:1800.0)
  in
  Alcotest.(check (list (option int))) "round robin over fixed"
    [ Some 1; Some 3; Some 1; Some 3 ] picks

let test_cycling_uplinks_only () =
  let rng = Netcore.Rng.create 1 in
  let tel = telemetry_with_rates [ 0.0; 0.0; 0.0; 0.0 ] in
  let pc =
    Port_cycling.create Config.Uplinks_only ~rng ~site:"S" ~candidates:[ 0; 1; 2; 3 ]
      ~uplinks:[ 0; 1 ]
  in
  for _ = 1 to 6 do
    match Port_cycling.next pc ~telemetry:tel ~window:1800.0 ~at:1800.0 with
    | Some p -> Alcotest.(check bool) "uplink" true (p = 0 || p = 1)
    | None -> Alcotest.fail "expected a port"
  done

let test_cycling_busiest_bias_prefers_active () =
  let rng = Netcore.Rng.create 2 in
  (* Port 2 busy, port 0 mildly active, others idle. *)
  let tel = telemetry_with_rates [ 1e3; 0.0; 1e9; 0.0 ] in
  let pc =
    Port_cycling.create (Config.Busiest_bias 4) ~rng ~site:"S"
      ~candidates:[ 0; 1; 2; 3 ] ~uplinks:[]
  in
  let picks =
    List.init 40 (fun _ ->
        Port_cycling.next pc ~telemetry:tel ~window:1800.0 ~at:1800.0)
  in
  List.iter
    (function
      | Some p -> Alcotest.(check bool) "only non-idle ports" true (p = 0 || p = 2)
      | None -> Alcotest.fail "expected a port")
    picks

let test_cycling_empty_candidates () =
  let rng = Netcore.Rng.create 3 in
  let tel = telemetry_with_rates [ 0.0 ] in
  let pc =
    Port_cycling.create Config.All_ports_round_robin ~rng ~site:"S" ~candidates:[]
      ~uplinks:[]
  in
  Alcotest.(check (option int)) "no ports" None
    (Port_cycling.next pc ~telemetry:tel ~window:1800.0 ~at:1800.0)

let test_cycling_round_robin_covers_all () =
  let rng = Netcore.Rng.create 4 in
  let tel = telemetry_with_rates [ 0.0; 0.0; 0.0 ] in
  let pc =
    Port_cycling.create Config.All_ports_round_robin ~rng ~site:"S"
      ~candidates:[ 0; 1; 2 ] ~uplinks:[]
  in
  let picks =
    List.filter_map
      (fun _ -> Port_cycling.next pc ~telemetry:tel ~window:1800.0 ~at:1800.0)
      (List.init 6 Fun.id)
  in
  Alcotest.(check (list int)) "covers all including idle" [ 0; 1; 2; 0; 1; 2 ] picks

(* --- Backoff --- *)

let make_fabric ?(seed = 8) () =
  let engine = Simcore.Engine.create () in
  let fabric = Fablib.create ~seed engine in
  (engine, fabric)

let profilable fabric =
  (List.hd (Info_model.profilable_sites (Fablib.model fabric))).Info_model.name

let test_backoff_full_acquisition () =
  let _, fabric = make_fabric () in
  let site = profilable fabric in
  let log = Logging.create () in
  match
    Backoff.acquire (Fablib.allocator fabric) ~log ~time:0.0 ~site
      ~desired_instances:1
  with
  | Backoff.Acquired { instances; degraded; _ } ->
    Alcotest.(check int) "one instance" 1 instances;
    Alcotest.(check bool) "not degraded" false degraded
  | Backoff.No_resources | Backoff.Backend_failed _ -> Alcotest.fail "should acquire"

let test_backoff_scales_down () =
  let _, fabric = make_fabric () in
  let site = profilable fabric in
  let avail =
    (Allocator.available (Fablib.allocator fabric) ~site).Allocator.avail_dedicated_nics
  in
  let log = Logging.create () in
  match
    Backoff.acquire (Fablib.allocator fabric) ~log ~time:0.0 ~site
      ~desired_instances:(avail + 3)
  with
  | Backoff.Acquired { instances; degraded; _ } ->
    Alcotest.(check int) "backed off to availability" avail instances;
    Alcotest.(check bool) "degraded" true degraded;
    Alcotest.(check bool) "warnings logged" true
      (Logging.count ~min_level:Logging.Warning log > 0)
  | Backoff.No_resources | Backoff.Backend_failed _ -> Alcotest.fail "should acquire"

let test_backoff_no_resources () =
  let _, fabric = make_fabric () in
  let site = profilable fabric in
  Allocator.set_external_utilization (Fablib.allocator fabric) ~site 1.0;
  let log = Logging.create () in
  match
    Backoff.acquire (Fablib.allocator fabric) ~log ~time:0.0 ~site
      ~desired_instances:2
  with
  | Backoff.No_resources -> ()
  | Backoff.Acquired _ | Backoff.Backend_failed _ -> Alcotest.fail "expected no resources"

let test_backoff_backend_outage () =
  let _, fabric = make_fabric () in
  let site = profilable fabric in
  Allocator.set_outages (Fablib.allocator fabric) [ (0.0, 1e9) ];
  let log = Logging.create () in
  match
    Backoff.acquire (Fablib.allocator fabric) ~log ~time:0.0 ~site
      ~desired_instances:1
  with
  | Backoff.Backend_failed _ -> ()
  | Backoff.Acquired _ | Backoff.No_resources -> Alcotest.fail "expected backend failure"

(* --- Capture on a live mirror --- *)

let with_busy_port f =
  let engine, fabric = make_fabric ~seed:12 () in
  let site = profilable fabric in
  let sw = Fablib.switch fabric ~site in
  let driver = Traffic.Driver.create fabric ~seed:12 in
  (* Attach a controlled flow directly instead of running the driver:
     deterministic rates. *)
  let template =
    Traffic.Stack_builder.forward (Netcore.Rng.create 1)
      {
        Traffic.Stack_builder.vlan_id = 100;
        mpls_labels = [ 5000 ];
        use_pseudowire = false;
        use_vxlan = false;
        use_ipv6 = false;
        service = Option.get (Dissect.Services.by_name "iperf3");
      }
  in
  let spec =
    Traffic.Flow_model.make ~flow_id:424242 ~template
      ~frame_size:(Netcore.Dist.Constant 1514.0) ~avg_frame_size:1514.0
      ~byte_rate:1e8 ~start_time:0.0 ~duration:3600.0 ()
  in
  let downlink = List.hd (Fablib.downlink_ports fabric ~site) in
  let nic_port = List.nth (Fablib.downlink_ports fabric ~site) 1 in
  Switch.attach_flow sw ~port:downlink ~dir:Switch.Rx ~byte_rate:1e8
    ~frame_rate:(Traffic.Flow_model.frame_rate spec) ~flow:424242;
  let resolver flow = if flow = 424242 then Some spec else Traffic.Driver.resolver driver flow in
  match Switch.add_mirror sw ~src_port:downlink ~dirs:Switch.Both ~dst_port:nic_port with
  | Error m -> Alcotest.fail m
  | Ok mirror -> f ~engine ~fabric ~site ~mirror ~port:downlink ~resolver

let test_capture_produces_acaps () =
  with_busy_port (fun ~engine:_ ~fabric ~site ~mirror ~port ~resolver ->
      let rng = Netcore.Rng.create 5 in
      let sample =
        Capture.run ~fabric ~resolver ~config:Config.default ~rng ~site ~mirror
          ~mirrored_port:port
      in
      let n = List.length sample.Capture.acaps in
      (* 1e8 B/s of 1514B frames for 20s ~ 1321 fps * 20 = 26k, capped at
         the 20k materialization budget. *)
      Alcotest.(check bool) "acaps produced" true (n > 15_000);
      Alcotest.(check bool) "within budget+slack" true (n < 25_000);
      Alcotest.(check bool) "offered counted" true
        (sample.Capture.stats.Capture.loss.Capture.b_offered_frames > 20_000.0);
      Alcotest.(check bool) "no switch loss at 0.8 Gbps" true
        (sample.Capture.stats.Capture.loss.Capture.b_switch_dropped = 0.0);
      Alcotest.(check bool) "no congestion flag" false
        sample.Capture.stats.Capture.congestion_detected;
      (* All materialized frames carry the flow's stack. *)
      List.iter
        (fun (r : Dissect.Acap.record) ->
          Alcotest.(check bool) "vlan tagged" true
            (List.mem "vlan" r.Dissect.Acap.stack))
        sample.Capture.acaps)

let test_capture_filter_restricts () =
  with_busy_port (fun ~engine:_ ~fabric ~site ~mirror ~port ~resolver ->
      let rng = Netcore.Rng.create 5 in
      let filter =
        match Packet.Filter.parse "udp" with Ok f -> f | Error m -> failwith m
      in
      let config = { Config.default with Config.filter } in
      let sample =
        Capture.run ~fabric ~resolver ~config ~rng ~site ~mirror ~mirrored_port:port
      in
      Alcotest.(check int) "tcp flow filtered out" 0
        (List.length sample.Capture.acaps))

let test_capture_emits_valid_pcap () =
  with_busy_port (fun ~engine:_ ~fabric ~site ~mirror ~port ~resolver ->
      let rng = Netcore.Rng.create 5 in
      let config =
        { Config.default with Config.emit_pcap = true; max_frames_per_sample = 500 }
      in
      let sample =
        Capture.run ~fabric ~resolver ~config ~rng ~site ~mirror ~mirrored_port:port
      in
      match sample.Capture.pcap with
      | None -> Alcotest.fail "expected pcap bytes"
      | Some buf ->
        let packets = Oracle.pcap_packets buf in
        Alcotest.(check int) "pcap matches acaps" (List.length sample.Capture.acaps)
          (List.length packets);
        (* Digesting the pcap yields the same stacks. *)
        let digested = Analysis.Digest.pcap_to_acaps buf in
        List.iter2
          (fun (a : Dissect.Acap.record) (b : Dissect.Acap.record) ->
            Alcotest.(check (list string)) "same stack" a.Dissect.Acap.stack
              b.Dissect.Acap.stack)
          sample.Capture.acaps digested)

let test_capture_anonymizes () =
  with_busy_port (fun ~engine:_ ~fabric ~site ~mirror ~port ~resolver ->
      let plain =
        Capture.run ~fabric ~resolver ~config:Config.default ~rng:(Netcore.Rng.create 5)
          ~site ~mirror ~mirrored_port:port
      in
      let anon_config = { Config.default with Config.anonymize = true } in
      let anon =
        Capture.run ~fabric ~resolver ~config:anon_config ~rng:(Netcore.Rng.create 5)
          ~site ~mirror ~mirrored_port:port
      in
      match (plain.Capture.acaps, anon.Capture.acaps) with
      | p :: _, a :: _ ->
        Alcotest.(check bool) "addresses differ" true
          (p.Dissect.Acap.src <> a.Dissect.Acap.src)
      | _ -> Alcotest.fail "expected records in both runs")

let test_capture_congestion_detection () =
  let engine, fabric = make_fabric ~seed:13 () in
  ignore engine;
  let site = profilable fabric in
  let sw = Fablib.switch fabric ~site in
  let driver = Traffic.Driver.create fabric ~seed:13 in
  let downlink = List.hd (Fablib.downlink_ports fabric ~site) in
  let nic_port = List.nth (Fablib.downlink_ports fabric ~site) 1 in
  (* Tx + Rx both at 70% of line rate: mirror target overloads. *)
  let line = Switch.line_rate sw /. 8.0 in
  Switch.attach_flow sw ~port:downlink ~dir:Switch.Rx ~byte_rate:(0.7 *. line)
    ~frame_rate:1e6 ~flow:1;
  Switch.attach_flow sw ~port:downlink ~dir:Switch.Tx ~byte_rate:(0.7 *. line)
    ~frame_rate:1e6 ~flow:2;
  match Switch.add_mirror sw ~src_port:downlink ~dirs:Switch.Both ~dst_port:nic_port with
  | Error m -> Alcotest.fail m
  | Ok mirror ->
    let rng = Netcore.Rng.create 5 in
    let sample =
      Capture.run ~fabric ~resolver:(Traffic.Driver.resolver driver)
        ~config:Config.default ~rng ~site ~mirror ~mirrored_port:downlink
    in
    Alcotest.(check bool) "congestion detected" true
      sample.Capture.stats.Capture.congestion_detected

(* --- Coordinator (single-experiment and all-experiment) --- *)

let test_coordinator_single_experiment_mode () =
  let engine, fabric = make_fabric ~seed:14 () in
  let driver = Traffic.Driver.create fabric ~seed:14 in
  let site = profilable fabric in
  let my_ports =
    match Fablib.downlink_ports fabric ~site with
    | a :: b :: _ -> [ a; b ]
    | _ -> Alcotest.fail "need two downlinks"
  in
  let config =
    {
      Config.default with
      Config.mode = Config.Single_experiment [ (site, my_ports) ];
      port_selection = Config.Fixed_ports my_ports;
      samples_per_run = 2;
      max_frames_per_sample = 2000;
    }
  in
  let report =
    Coordinator.run_occasion ~fabric ~driver ~config ~max_instances:1
      ~start_time:0.0 ~duration:3600.0 ()
  in
  ignore engine;
  Alcotest.(check int) "one site targeted" 1
    (List.length report.Coordinator.sites);
  let site_report = List.hd report.Coordinator.sites in
  List.iter
    (fun (s : Capture.sample) ->
      Alcotest.(check bool) "only my ports sampled" true
        (List.mem s.Capture.sample_port my_ports))
    site_report.Coordinator.site_samples

let test_coordinator_all_experiment_mode () =
  let _, fabric = make_fabric ~seed:15 () in
  let driver = Traffic.Driver.create fabric ~seed:15 in
  let config =
    { Config.default with Config.samples_per_run = 2; max_frames_per_sample = 500 }
  in
  let availability () =
    List.map
      (fun (s : Testbed.Info_model.site) ->
        Allocator.available (Fablib.allocator fabric) ~site:s.Testbed.Info_model.name)
      (Testbed.Info_model.profilable_sites (Fablib.model fabric))
  in
  let before = availability () in
  let report =
    Coordinator.run_occasion ~fabric ~driver ~config ~max_instances:1
      ~start_time:0.0 ~duration:1900.0 ()
  in
  let n_sites = List.length report.Coordinator.sites in
  Alcotest.(check bool) "most sites targeted" true (n_sites >= 25);
  Alcotest.(check bool) "EDUKY skipped" true
    (not
       (List.exists
          (fun r -> r.Coordinator.report_site = "EDUKY")
          report.Coordinator.sites));
  let ok =
    List.filter
      (fun r ->
        match r.Coordinator.outcome with
        | Coordinator.Site_success | Coordinator.Site_degraded -> true
        | Coordinator.Site_failed _ | Coordinator.Site_incomplete _ -> false)
      report.Coordinator.sites
  in
  Alcotest.(check bool) "mostly successful" true
    (float_of_int (List.length ok) > 0.8 *. float_of_int n_sites);
  (* Resources are yielded back after gathering. *)
  Alcotest.(check bool) "slices released" true (availability () = before)

let test_coordinator_outage_fails_sites () =
  let _, fabric = make_fabric ~seed:16 () in
  let driver = Traffic.Driver.create fabric ~seed:16 in
  Allocator.set_outages (Fablib.allocator fabric) [ (0.0, 1e9) ];
  let config =
    { Config.default with Config.samples_per_run = 1; max_frames_per_sample = 100 }
  in
  let report =
    Coordinator.run_occasion ~fabric ~driver ~config ~max_instances:1
      ~start_time:0.0 ~duration:1200.0 ()
  in
  List.iter
    (fun r ->
      match r.Coordinator.outcome with
      | Coordinator.Site_failed _ -> ()
      | _ -> Alcotest.fail "expected failure")
    report.Coordinator.sites

(* --- Logging --- *)

let test_logging_order_and_count () =
  let log = Logging.create () in
  Logging.log log ~time:1.0 ~level:Logging.Info ~component:"a" "first";
  Logging.log log ~time:2.0 ~level:Logging.Error ~component:"b" "second";
  Logging.log log ~time:3.0 ~level:Logging.Warning ~component:"c" "third";
  let entries = List.map snd (Logging.drain_since log ~seq:0) in
  Alcotest.(check int) "three entries" 3 (List.length entries);
  Alcotest.(check string) "oldest first" "first" (List.hd entries).Logging.event;
  Alcotest.(check int) "warnings and up" 2 (Logging.count ~min_level:Logging.Warning log);
  Alcotest.(check int) "errors" 1 (Logging.count ~min_level:Logging.Error log)

let suites =
  [
    ( "patchwork.config",
      [
        Alcotest.test_case "default valid" `Quick test_config_default_valid;
        Alcotest.test_case "rejections" `Quick test_config_rejections;
      ] );
    ( "patchwork.port_cycling",
      [
        Alcotest.test_case "fixed round robin" `Quick test_cycling_fixed_round_robin;
        Alcotest.test_case "uplinks only" `Quick test_cycling_uplinks_only;
        Alcotest.test_case "busiest bias avoids idle" `Quick test_cycling_busiest_bias_prefers_active;
        Alcotest.test_case "empty candidates" `Quick test_cycling_empty_candidates;
        Alcotest.test_case "round robin covers idle" `Quick test_cycling_round_robin_covers_all;
      ] );
    ( "patchwork.backoff",
      [
        Alcotest.test_case "full acquisition" `Quick test_backoff_full_acquisition;
        Alcotest.test_case "scales down" `Quick test_backoff_scales_down;
        Alcotest.test_case "no resources" `Quick test_backoff_no_resources;
        Alcotest.test_case "backend outage" `Quick test_backoff_backend_outage;
      ] );
    ( "patchwork.capture",
      [
        Alcotest.test_case "produces acaps" `Quick test_capture_produces_acaps;
        Alcotest.test_case "filter restricts" `Quick test_capture_filter_restricts;
        Alcotest.test_case "valid pcap emitted" `Quick test_capture_emits_valid_pcap;
        Alcotest.test_case "anonymization" `Quick test_capture_anonymizes;
        Alcotest.test_case "congestion detection" `Quick test_capture_congestion_detection;
      ] );
    ( "patchwork.coordinator",
      [
        Alcotest.test_case "single-experiment mode" `Slow test_coordinator_single_experiment_mode;
        Alcotest.test_case "all-experiment mode" `Slow test_coordinator_all_experiment_mode;
        Alcotest.test_case "outage fails sites" `Slow test_coordinator_outage_fails_sites;
      ] );
    ( "patchwork.logging",
      [ Alcotest.test_case "order and counts" `Quick test_logging_order_and_count ] );
  ]
