module Engine = Simcore.Engine
module Info_model = Testbed.Info_model
module Switch = Testbed.Switch
module Telemetry = Testbed.Telemetry
module Allocator = Testbed.Allocator
module Fablib = Testbed.Fablib

(* --- Information model --- *)

let test_model_deterministic () =
  let a = Info_model.generate ~seed:5 and b = Info_model.generate ~seed:5 in
  Alcotest.(check bool) "same model" true (a = b);
  let c = Info_model.generate ~seed:6 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_model_shape () =
  let m = Info_model.generate ~seed:1 in
  Alcotest.(check int) "30 sites" 30 (Array.length m.Info_model.sites);
  Array.iter
    (fun (s : Info_model.site) ->
      Alcotest.(check bool) "has uplinks" true (s.Info_model.uplinks >= 1);
      Alcotest.(check bool) "more downlinks than uplinks" true
        (s.Info_model.downlinks > s.Info_model.uplinks))
    m.Info_model.sites

let test_model_teaching_site () =
  let m = Info_model.generate ~seed:1 in
  let eduky = Info_model.site m "EDUKY" in
  Alcotest.(check bool) "teaching only" true eduky.Info_model.teaching_only;
  Alcotest.(check int) "no dedicated NICs" 0 (Info_model.dedicated_nics eduky);
  let profilable = Info_model.profilable_sites m in
  Alcotest.(check bool) "EDUKY excluded" true
    (not (List.exists (fun s -> s.Info_model.name = "EDUKY") profilable));
  Alcotest.(check bool) "most sites profilable" true (List.length profilable >= 25)

let test_model_lookup () =
  let m = Info_model.generate ~seed:1 in
  Alcotest.check_raises "unknown site" Not_found (fun () ->
      ignore (Info_model.site m "NOPE"))

(* --- Switch --- *)

let make_switch ?(ports = 8) () =
  let engine = Engine.create () in
  (engine, Switch.create engine ~site_name:"TEST" ~ports ~line_rate:100e9)

let test_switch_counters_accumulate () =
  let engine, sw = make_switch () in
  Switch.attach_flow sw ~port:2 ~dir:Switch.Tx ~byte_rate:1000.0 ~frame_rate:10.0
    ~flow:1;
  Engine.schedule engine ~delay:10.0 (fun _ -> ());
  Engine.run engine;
  let c = Switch.read_counters sw ~port:2 in
  Alcotest.(check (float 1e-6)) "tx bytes" 10_000.0 c.Switch.tx_bytes;
  Alcotest.(check (float 1e-6)) "tx frames" 100.0 c.Switch.tx_frames;
  Alcotest.(check (float 1e-6)) "rx untouched" 0.0 c.Switch.rx_bytes

let test_switch_detach_stops_counting () =
  let engine, sw = make_switch () in
  Switch.attach_flow sw ~port:1 ~dir:Switch.Rx ~byte_rate:500.0 ~frame_rate:5.0 ~flow:7;
  Engine.schedule engine ~delay:4.0 (fun _ -> Switch.detach_flow sw ~flow:7);
  Engine.schedule engine ~delay:10.0 (fun _ -> ());
  Engine.run engine;
  let c = Switch.read_counters sw ~port:1 in
  Alcotest.(check (float 1e-6)) "rx stops at detach" 2000.0 c.Switch.rx_bytes

let test_switch_multi_attachment_flow () =
  let _, sw = make_switch () in
  Switch.attach_flow sw ~port:1 ~dir:Switch.Rx ~byte_rate:100.0 ~frame_rate:1.0 ~flow:9;
  Switch.attach_flow sw ~port:2 ~dir:Switch.Tx ~byte_rate:100.0 ~frame_rate:1.0 ~flow:9;
  Alcotest.(check int) "two ports see it" 1
    (List.length (Switch.attachments sw ~port:1));
  Switch.detach_flow sw ~flow:9;
  Alcotest.(check int) "all detached" 0 (List.length (Switch.attachments sw ~port:1));
  Alcotest.(check int) "other port too" 0 (List.length (Switch.attachments sw ~port:2))

let test_mirror_basic () =
  let _, sw = make_switch () in
  (match Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Both ~dst_port:5 with
  | Error m -> Alcotest.fail m
  | Ok id ->
    Alcotest.(check int) "one session" 1 (Switch.mirror_count sw);
    Switch.remove_mirror sw id);
  Alcotest.(check int) "removed" 0 (Switch.mirror_count sw)

let test_mirror_rejections () =
  let _, sw = make_switch () in
  let expect_error what = function
    | Ok _ -> Alcotest.fail ("expected error: " ^ what)
    | Error _ -> ()
  in
  expect_error "same port" (Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Both ~dst_port:1);
  expect_error "out of range" (Switch.add_mirror sw ~src_port:99 ~dirs:Switch.Both ~dst_port:1);
  (match Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Both ~dst_port:5 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  expect_error "already mirrored"
    (Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Rx_only ~dst_port:6);
  expect_error "destination busy"
    (Switch.add_mirror sw ~src_port:2 ~dirs:Switch.Rx_only ~dst_port:5)

let test_mirror_overflow_drops () =
  let _, sw = make_switch () in
  (* Tx + Rx = 150 Gbps mirrored onto a 100 Gbps egress. *)
  let gbps g = g *. 1e9 /. 8.0 in
  Switch.attach_flow sw ~port:1 ~dir:Switch.Tx ~byte_rate:(gbps 75.0)
    ~frame_rate:6e6 ~flow:1;
  Switch.attach_flow sw ~port:1 ~dir:Switch.Rx ~byte_rate:(gbps 75.0)
    ~frame_rate:6e6 ~flow:2;
  match Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Both ~dst_port:5 with
  | Error m -> Alcotest.fail m
  | Ok id ->
    let frac = Switch.mirror_drop_fraction sw id in
    Alcotest.(check (float 1e-6)) "drop fraction" (1.0 -. (100.0 /. 150.0)) frac;
    Alcotest.(check (float 1e3)) "mirrored rate" (gbps 150.0) (Switch.mirrored_rate sw id)

let test_mirror_healthy_no_drops () =
  let _, sw = make_switch () in
  Switch.attach_flow sw ~port:1 ~dir:Switch.Tx ~byte_rate:1e9 ~frame_rate:1e5 ~flow:1;
  match Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Both ~dst_port:5 with
  | Error m -> Alcotest.fail m
  | Ok id -> Alcotest.(check (float 1e-9)) "no drops" 0.0 (Switch.mirror_drop_fraction sw id)

let test_mirror_direction_filter () =
  let _, sw = make_switch () in
  Switch.attach_flow sw ~port:1 ~dir:Switch.Tx ~byte_rate:100.0 ~frame_rate:1.0 ~flow:1;
  Switch.attach_flow sw ~port:1 ~dir:Switch.Rx ~byte_rate:200.0 ~frame_rate:2.0 ~flow:2;
  match Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Rx_only ~dst_port:5 with
  | Error m -> Alcotest.fail m
  | Ok id ->
    let atts = Switch.mirrored_attachments sw id in
    Alcotest.(check int) "only rx attachment" 1 (List.length atts);
    Alcotest.(check (float 1e-9)) "rx rate only" 200.0 (Switch.mirrored_rate sw id)

let test_mirror_counts_on_dst_port () =
  let engine, sw = make_switch () in
  Switch.attach_flow sw ~port:1 ~dir:Switch.Rx ~byte_rate:1000.0 ~frame_rate:10.0
    ~flow:1;
  (match Switch.add_mirror sw ~src_port:1 ~dirs:Switch.Both ~dst_port:5 with
  | Error m -> Alcotest.fail m
  | Ok _ -> ());
  Engine.schedule engine ~delay:10.0 (fun _ -> ());
  Engine.run engine;
  let c = Switch.read_counters sw ~port:5 in
  Alcotest.(check (float 1e-6)) "mirrored bytes on dst tx" 10_000.0 c.Switch.tx_bytes

(* --- Telemetry --- *)

let test_telemetry_rates () =
  let engine = Engine.create () in
  let sw = Switch.create engine ~site_name:"S" ~ports:4 ~line_rate:100e9 in
  let tel = Telemetry.create engine in
  Telemetry.register_switch tel sw;
  Switch.attach_flow sw ~port:2 ~dir:Switch.Tx ~byte_rate:1e6 ~frame_rate:1e3 ~flow:1;
  Telemetry.start ~until:3600.0 tel;
  Engine.run ~until:3600.0 engine;
  let rate = Telemetry.port_avg_rate tel ~site:"S" ~port:2 ~window:1800.0 ~at:3600.0 in
  Alcotest.(check bool) "about 1 MB/s" true (Float.abs (rate -. 1e6) < 1e3);
  let idle = Telemetry.port_avg_rate tel ~site:"S" ~port:3 ~window:1800.0 ~at:3600.0 in
  Alcotest.(check (float 1e-9)) "idle port" 0.0 idle

let test_telemetry_busiest () =
  let engine = Engine.create () in
  let sw = Switch.create engine ~site_name:"S" ~ports:4 ~line_rate:100e9 in
  let tel = Telemetry.create engine in
  Telemetry.register_switch tel sw;
  Switch.attach_flow sw ~port:1 ~dir:Switch.Tx ~byte_rate:1e5 ~frame_rate:100.0 ~flow:1;
  Switch.attach_flow sw ~port:2 ~dir:Switch.Tx ~byte_rate:1e7 ~frame_rate:1e4 ~flow:2;
  Telemetry.start ~until:1800.0 tel;
  Engine.run ~until:1800.0 engine;
  Alcotest.(check (option int)) "busiest is port 2" (Some 2)
    (Telemetry.busiest_port tel ~site:"S" ~candidates:[ 0; 1; 2; 3 ] ~window:1800.0
       ~at:1800.0);
  Alcotest.(check (option int)) "all idle" None
    (Telemetry.busiest_port tel ~site:"S" ~candidates:[ 0; 3 ] ~window:1800.0
       ~at:1800.0)

let test_telemetry_window_edges () =
  let engine = Engine.create () in
  let tel = Telemetry.create engine in
  (* Empty store: no samples anywhere. *)
  Alcotest.(check (float 1e-9)) "empty store" 0.0
    (Telemetry.port_avg_rate tel ~site:"S" ~port:0 ~window:100.0 ~at:1000.0);
  Alcotest.(check (option int)) "empty store busiest" None
    (Telemetry.busiest_port tel ~site:"S" ~candidates:[ 0; 1 ] ~window:100.0
       ~at:1000.0);
  (* Flows attached at known times pin each rate sample: polls run
     every 300 s, the first (at 300 s) takes no rate, and a flow of r B/s
     over (t - 300, t] makes the sample at t read r: 8 at 600 s, 2 at
     900 s and 4 at 1,200 s. *)
  let sw = Switch.create engine ~site_name:"S" ~ports:1 ~line_rate:100e9 in
  Telemetry.register_switch tel sw;
  List.iteri
    (fun i byte_rate ->
      let from = 300.0 *. float_of_int (i + 1) in
      Engine.schedule engine ~delay:from (fun _ ->
          Switch.attach_flow sw ~port:0 ~dir:Switch.Tx ~byte_rate ~frame_rate:1.0
            ~flow:i);
      Engine.schedule engine ~delay:(from +. 300.0) (fun _ ->
          Switch.detach_flow sw ~flow:i))
    [ 8.0; 2.0; 4.0 ];
  Telemetry.start ~until:1200.0 tel;
  Engine.run ~until:1200.0 engine;
  (* Window [900, 1200]: both edge samples count, the 600 s one does not. *)
  Alcotest.(check (float 1e-9)) "inclusive edges" 3.0
    (Telemetry.port_avg_rate tel ~site:"S" ~port:0 ~window:300.0 ~at:1200.0);
  (* A sample exactly at [at] is visible on its own. *)
  Alcotest.(check (float 1e-9)) "sample exactly at" 4.0
    (Telemetry.port_avg_rate tel ~site:"S" ~port:0 ~window:1.0 ~at:1200.0);
  (* A window that ends before the first sample sees nothing, though it
     holds the first poll. *)
  Alcotest.(check (float 1e-9)) "window before data" 0.0
    (Telemetry.port_avg_rate tel ~site:"S" ~port:0 ~window:300.0 ~at:599.0)

(* One case from one seed: 1-4 switches of 1-64 ports, polled by the
   columns and by the keyed store of [Oracle] on one engine over two
   polling phases a random gap apart (the first sometimes started twice,
   so two polls share an instant), while flows attach and detach at
   random times and a mirror may overload a port into drops.  Then
   random reads: rates must be bit-equal, for unknown sites, ports out of
   range, and [at] on and off poll instants; rankings must be equal. *)
let telemetry_case seed =
  let module K = Oracle.Keyed_telemetry in
  let rng = Netcore.Rng.create seed in
  let int n = Netcore.Rng.int rng n and float x = Netcore.Rng.float rng *. x in
  let engine = Engine.create () in
  let tel = Telemetry.create engine and keyed = K.create engine in
  let switches =
    Array.init (1 + int 4) (fun i ->
        Switch.create engine ~site_name:(Printf.sprintf "S%d" i) ~ports:(1 + int 64)
          ~line_rate:8e5)
  in
  Array.iter
    (fun sw ->
      Telemetry.register_switch tel sw;
      K.register_switch keyed sw;
      if Switch.port_count sw > 1 && Netcore.Rng.bool rng then
        ignore (Switch.add_mirror sw ~src_port:0 ~dirs:Switch.Both ~dst_port:1))
    switches;
  let first = 300.0 *. float_of_int (1 + int 8) in
  let gap =
    Netcore.Rng.choice rng [| 0.0; 150.0; 300.0; 7.0 *. 86400.0 |] +. float 1000.0
  in
  let second = 300.0 *. float_of_int (1 + int 8) in
  let horizon = first +. gap +. second in
  (* Half the flows sit on the first four ports at one of a few rates,
     attached on the 300 s grid, so equal rates, and so ties in the
     ranking, are common. *)
  for flow = 0 to int 24 do
    let sw = Netcore.Rng.choice rng switches in
    let low = Netcore.Rng.bool rng in
    let port = int (if low then min 4 (Switch.port_count sw) else Switch.port_count sw) in
    let dir = if Netcore.Rng.bool rng then Switch.Tx else Switch.Rx in
    let byte_rate =
      if low then Netcore.Rng.choice rng [| 0.0; 1e3; 1e3; 5e4 |] else float 2e5
    in
    let from =
      if low then 300.0 *. float_of_int (int (int_of_float (horizon /. 300.0)))
      else float horizon
    in
    Engine.schedule engine ~delay:from (fun _ ->
        Switch.attach_flow sw ~port ~dir ~byte_rate ~frame_rate:(byte_rate /. 1000.0)
          ~flow);
    if Netcore.Rng.bool rng then
      Engine.schedule engine ~delay:(from +. float horizon) (fun _ ->
          Switch.detach_flow sw ~flow)
  done;
  let start ~until =
    Telemetry.start ~until tel;
    K.start ~until keyed
  in
  start ~until:first;
  if Netcore.Rng.bool rng then start ~until:first;
  Engine.run ~until:(first +. gap) engine;
  start ~until:horizon;
  Engine.run ~until:horizon engine;
  (* A poll instant of either phase, or any time up to past the last. *)
  let instant () =
    match int 3 with
    | 0 -> 300.0 *. float_of_int (1 + int (int_of_float (first /. 300.0)))
    | 1 ->
      first +. gap +. (300.0 *. float_of_int (1 + int (int_of_float (second /. 300.0))))
    | _ -> float (horizon +. 600.0)
  in
  let window () =
    if Netcore.Rng.bool rng then float 4000.0
    else
      Netcore.Rng.choice rng [| -1.0; 0.0; 1.0; 299.0; 300.0; 301.0; 600.0; 1800.0; 1e9 |]
  in
  let site () =
    let i = int (Array.length switches + 1) in
    if i = Array.length switches then "unknown" else Switch.site_name switches.(i)
  in
  let port () = int 66 - 1 in
  let rate_equal () =
    let site = site () and port = port () and window = window () and at = instant () in
    Int64.equal
      (Int64.bits_of_float (Telemetry.port_avg_rate tel ~site ~port ~window ~at))
      (Int64.bits_of_float (K.port_avg_rate keyed ~site ~port ~window ~at))
  in
  let busiest_equal () =
    let site = site () and window = window () and at = instant () in
    let candidates =
      List.init (int 12) (fun _ -> if Netcore.Rng.bool rng then int 5 - 1 else port ())
    in
    Telemetry.busiest_port tel ~site ~candidates ~window ~at
    = K.busiest_port keyed ~site ~candidates ~window ~at
  in
  List.for_all (fun _ -> rate_equal ()) (List.init 64 Fun.id)
  && List.for_all (fun _ -> busiest_equal ()) (List.init 16 Fun.id)

let prop_telemetry_matches_keyed =
  QCheck.Test.make ~name:"columns answer as the keyed store" ~count:200
    QCheck.(int_range 1 1_000_000)
    telemetry_case

(* --- Allocator --- *)

let vm ?(nics = 1) () =
  { Allocator.cores = 2; ram_gb = 8; storage_gb = 100; dedicated_nics = nics;
    use_fpga = false }

let make_allocator () =
  let engine = Engine.create () in
  let model = Info_model.generate ~seed:3 in
  (engine, model, Allocator.create engine model)

let first_profilable model =
  (List.hd (Info_model.profilable_sites model)).Info_model.name

let test_allocator_lifecycle () =
  let _, model, alloc = make_allocator () in
  let site = first_profilable model in
  let before = (Allocator.available alloc ~site).Allocator.avail_dedicated_nics in
  match Allocator.create_slice alloc { Allocator.site; vms = [ vm () ] } with
  | Error _ -> Alcotest.fail "allocation should succeed"
  | Ok slice ->
    let during = (Allocator.available alloc ~site).Allocator.avail_dedicated_nics in
    Alcotest.(check int) "nic consumed" (before - 1) during;
    Allocator.delete_slice alloc slice;
    let after = (Allocator.available alloc ~site).Allocator.avail_dedicated_nics in
    Alcotest.(check int) "nic released" before after

let test_allocator_insufficient () =
  let _, model, alloc = make_allocator () in
  let site = first_profilable model in
  let avail = (Allocator.available alloc ~site).Allocator.avail_dedicated_nics in
  match
    Allocator.create_slice alloc
      { Allocator.site; vms = [ vm ~nics:(avail + 1) () ] }
  with
  | Error (Allocator.Insufficient_resources what) ->
    Alcotest.(check string) "nics are scarce" "dedicated NICs" what
  | Error (Allocator.Backend_error _) -> Alcotest.fail "unexpected backend error"
  | Ok _ -> Alcotest.fail "should be insufficient"

let test_allocator_outage () =
  let engine, model, alloc = make_allocator () in
  let site = first_profilable model in
  Allocator.set_outages alloc [ (100.0, 200.0) ];
  Engine.schedule engine ~delay:150.0 (fun _ ->
      match Allocator.create_slice alloc { Allocator.site; vms = [ vm () ] } with
      | Error (Allocator.Backend_error _) -> ()
      | Error (Allocator.Insufficient_resources _) | Ok _ ->
        Alcotest.fail "expected backend outage");
  (* After the outage window, allocation works again. *)
  Engine.schedule engine ~delay:300.0 (fun _ ->
      match Allocator.create_slice alloc { Allocator.site; vms = [ vm () ] } with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "should succeed after outage");
  Engine.run engine

let test_allocator_external_pressure () =
  let _, model, alloc = make_allocator () in
  let site = first_profilable model in
  Allocator.set_external_utilization alloc ~site 1.0;
  Alcotest.(check int) "all NICs taken externally" 0
    (Allocator.available alloc ~site).Allocator.avail_dedicated_nics;
  Allocator.set_external_utilization alloc ~site 0.0;
  Alcotest.(check bool) "released" true
    ((Allocator.available alloc ~site).Allocator.avail_dedicated_nics > 0)

(* --- Fablib facade --- *)

let test_fablib_ports () =
  let engine = Engine.create () in
  let fabric = Fablib.create ~seed:2 engine in
  let model = Fablib.model fabric in
  let site = (List.hd (Info_model.profilable_sites model)).Info_model.name in
  let ups = Fablib.uplink_ports fabric ~site in
  let downs = Fablib.downlink_ports fabric ~site in
  let all = Fablib.all_ports fabric ~site in
  Alcotest.(check int) "partition" (List.length all)
    (List.length ups + List.length downs);
  Alcotest.(check bool) "uplinks come first" true
    (List.for_all (fun u -> List.for_all (fun d -> u < d) downs) ups);
  let sw = Fablib.switch fabric ~site in
  Alcotest.(check int) "switch sized to ports" (List.length all) (Switch.port_count sw)

let suites =
  [
    ( "testbed.info_model",
      [
        Alcotest.test_case "deterministic" `Quick test_model_deterministic;
        Alcotest.test_case "shape" `Quick test_model_shape;
        Alcotest.test_case "teaching site" `Quick test_model_teaching_site;
        Alcotest.test_case "lookup" `Quick test_model_lookup;
      ] );
    ( "testbed.switch",
      [
        Alcotest.test_case "counters accumulate" `Quick test_switch_counters_accumulate;
        Alcotest.test_case "detach stops counting" `Quick test_switch_detach_stops_counting;
        Alcotest.test_case "multi-port attachment" `Quick test_switch_multi_attachment_flow;
        Alcotest.test_case "mirror basic" `Quick test_mirror_basic;
        Alcotest.test_case "mirror rejections" `Quick test_mirror_rejections;
        Alcotest.test_case "mirror overflow drops" `Quick test_mirror_overflow_drops;
        Alcotest.test_case "mirror healthy" `Quick test_mirror_healthy_no_drops;
        Alcotest.test_case "mirror direction filter" `Quick test_mirror_direction_filter;
        Alcotest.test_case "mirror counts on destination" `Quick test_mirror_counts_on_dst_port;
      ] );
    ( "testbed.telemetry",
      [
        Alcotest.test_case "port rates" `Quick test_telemetry_rates;
        Alcotest.test_case "busiest port" `Quick test_telemetry_busiest;
        Alcotest.test_case "window edges" `Quick test_telemetry_window_edges;
        QCheck_alcotest.to_alcotest prop_telemetry_matches_keyed;
      ] );
    ( "testbed.allocator",
      [
        Alcotest.test_case "lifecycle" `Quick test_allocator_lifecycle;
        Alcotest.test_case "insufficient resources" `Quick test_allocator_insufficient;
        Alcotest.test_case "backend outage" `Quick test_allocator_outage;
        Alcotest.test_case "external pressure" `Quick test_allocator_external_pressure;
      ] );
    ("testbed.fablib", [ Alcotest.test_case "port layout" `Quick test_fablib_ports ]);
  ]
