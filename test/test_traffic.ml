open Traffic
module H = Packet.Headers
module S = Dissect.Services

let rng () = Netcore.Rng.create 11

(* --- Flow_model --- *)

let simple_template () =
  [
    H.Ethernet
      { src = Netcore.Mac.of_int64 0x020000000001L;
        dst = Netcore.Mac.of_int64 0x020000000002L };
    H.Ipv4
      { src = Netcore.Ipv4_addr.of_string "10.0.0.1";
        dst = Netcore.Ipv4_addr.of_string "10.0.0.2";
        dscp = 0; ttl = 64; ident = 1; dont_fragment = true };
    H.Tcp
      { src_port = 40000; dst_port = 5201; seq = 0l; ack_seq = 0l;
        flags = H.flags_psh_ack; window = 100 };
  ]

let make_spec ?(subflows = 1) ?(byte_rate = 1e6) () =
  Flow_model.make ~flow_id:1 ~template:(simple_template ())
    ~frame_size:(Netcore.Dist.Constant 1000.0) ~avg_frame_size:1000.0 ~byte_rate
    ~start_time:100.0 ~duration:60.0 ~subflows ()

let test_spec_rates () =
  let spec = make_spec () in
  Alcotest.(check (float 1e-9)) "frame rate" 1000.0 (Flow_model.frame_rate spec);
  Alcotest.(check (float 1e-9)) "end time" 160.0 (Flow_model.end_time spec)

let test_spec_rejects_bad_template () =
  let bad = [ List.nth (simple_template ()) 1 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Flow_model.make ~flow_id:1 ~template:bad
            ~frame_size:(Netcore.Dist.Constant 100.0) ~avg_frame_size:100.0
            ~byte_rate:1.0 ~start_time:0.0 ~duration:1.0 ());
       false
     with Invalid_argument _ -> true)

let test_frames_in_window_count () =
  let spec = make_spec () in
  (* Window covering 20s of the flow at 1000 fps -> ~20000 frames. *)
  let frames = Oracle.frames_in_window spec (rng ()) ~start_time:110.0 ~end_time:130.0 in
  let n = List.length frames in
  Alcotest.(check bool) "poisson count near mean" true (n > 19_000 && n < 21_000);
  Alcotest.(check (float 1e-9)) "expectation" 20_000.0
    (Flow_model.expected_frames spec ~start_time:110.0 ~end_time:130.0)

let test_frames_ordered_and_in_window () =
  let spec = make_spec ~byte_rate:1e5 () in
  let frames = Oracle.frames_in_window spec (rng ()) ~start_time:0.0 ~end_time:1000.0 in
  let rec check_sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      Alcotest.(check bool) "sorted" true (t1 <= t2);
      check_sorted rest
    | _ -> ()
  in
  check_sorted frames;
  List.iter
    (fun (ts, _) ->
      Alcotest.(check bool) "inside flow lifetime" true (ts >= 100.0 && ts < 160.0))
    frames

let test_no_frames_outside_window () =
  let spec = make_spec () in
  Alcotest.(check int) "before" 0
    (List.length (Oracle.frames_in_window spec (rng ()) ~start_time:0.0 ~end_time:99.0));
  Alcotest.(check int) "after" 0
    (List.length
       (Oracle.frames_in_window spec (rng ()) ~start_time:161.0 ~end_time:200.0))

let test_subflows_vary_tuples () =
  let spec = make_spec ~subflows:50 ~byte_rate:1e6 () in
  let frames = Oracle.frames_in_window spec (rng ()) ~start_time:100.0 ~end_time:110.0 in
  let keys = Hashtbl.create 64 in
  List.iter
    (fun (_, f) ->
      let acap = Test_dissect.acap_of_encoded ~ts:0.0 f in
      match Dissect.Acap.flow_key acap with
      | Some k -> Hashtbl.replace keys k ()
      | None -> ())
    frames;
  let distinct = Hashtbl.length keys in
  Alcotest.(check bool) "many distinct 5-tuples" true (distinct > 10 && distinct <= 50)

let test_single_subflow_single_tuple () =
  let spec = make_spec ~subflows:1 () in
  let frames = Oracle.frames_in_window spec (rng ()) ~start_time:100.0 ~end_time:101.0 in
  let keys = Hashtbl.create 4 in
  List.iter
    (fun (_, f) ->
      match Dissect.Acap.flow_key (Test_dissect.acap_of_encoded ~ts:0.0 f) with
      | Some k -> Hashtbl.replace keys k ()
      | None -> ())
    frames;
  Alcotest.(check int) "one 5-tuple" 1 (Hashtbl.length keys)

let test_frames_respect_size_bounds () =
  let spec =
    Flow_model.make ~flow_id:2 ~template:(simple_template ())
      ~frame_size:(Netcore.Dist.Constant 50_000.0) ~avg_frame_size:9000.0
      ~byte_rate:1e6 ~start_time:0.0 ~duration:10.0 ()
  in
  let frames = Oracle.frames_in_window spec (rng ()) ~start_time:0.0 ~end_time:1.0 in
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "clamped to jumbo MTU" true
        (Packet.Frame.wire_length f <= 9000))
    frames

(* --- Stack_builder --- *)

let params ?(vlan_id = 500) ?(mpls = [ 777 ]) ?(pw = false) ?(vxlan = false)
    ?(ipv6 = false) ?(service = "iperf3") () =
  {
    Stack_builder.vlan_id;
    mpls_labels = mpls;
    use_pseudowire = pw;
    use_vxlan = vxlan;
    use_ipv6 = ipv6;
    service = Option.get (S.by_name service);
  }

let test_forward_validates () =
  let rng = rng () in
  let combos =
    [
      params ();
      params ~pw:true ();
      params ~vxlan:true ();
      params ~ipv6:true ();
      params ~mpls:[ 1; 2 ] ~pw:true ~service:"tls" ();
      params ~mpls:[] ~service:"dns" ();
      params ~service:"memcached" ();
    ]
  in
  List.iter
    (fun p ->
      let stack = Stack_builder.forward rng p in
      match Packet.Frame.validate stack with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "invalid stack: %s" msg)
    combos

let test_forward_has_service_port () =
  let stack = Stack_builder.forward (rng ()) (params ~service:"mysql" ()) in
  let has_port =
    List.exists
      (function H.Tcp { dst_port = 3306; _ } -> true | _ -> false)
      stack
  in
  Alcotest.(check bool) "mysql port present" true has_port

let test_forward_app_headers () =
  let stack = Stack_builder.forward (rng ()) (params ~service:"tls" ()) in
  Alcotest.(check bool) "tls header present" true
    (List.exists (function H.Tls _ -> true | _ -> false) stack)

let test_pseudowire_structure () =
  let stack = Stack_builder.forward (rng ()) (params ~pw:true ()) in
  let tokens = List.map H.name stack in
  Alcotest.(check bool) "pw present" true (List.mem "pw" tokens);
  (* Two Ethernet layers: outer + PW inner. *)
  Alcotest.(check int) "two eth" 2
    (List.length (List.filter (fun t -> t = "eth") tokens))

let test_reverse_swaps_and_validates () =
  let fwd = Stack_builder.forward (rng ()) (params ~service:"tls" ()) in
  let rev = Stack_builder.reverse fwd in
  (match Packet.Frame.validate rev with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "reverse invalid: %s" msg);
  let fwd_ip =
    List.find_map (function H.Ipv4 ip -> Some ip | _ -> None) fwd
  in
  let rev_ip =
    List.find_map (function H.Ipv4 ip -> Some ip | _ -> None) rev
  in
  (match (fwd_ip, rev_ip) with
  | Some f, Some r ->
    Alcotest.(check bool) "src/dst swapped" true
      (Netcore.Ipv4_addr.equal f.H.src r.H.dst
      && Netcore.Ipv4_addr.equal f.H.dst r.H.src)
  | _ -> Alcotest.fail "expected ipv4 in both");
  Alcotest.(check bool) "no app layer in reverse" true
    (not (List.exists (function H.Tls _ -> true | _ -> false) rev))

(* --- Workload --- *)

let site_of_model idx =
  let m = Testbed.Info_model.generate ~seed:4 in
  m.Testbed.Info_model.sites.(idx)

let test_profiles_persistent () =
  let p1 = Workload.profile_for_site ~seed:9 (site_of_model 3) in
  let p2 = Workload.profile_for_site ~seed:9 (site_of_model 3) in
  Alcotest.(check bool) "same profile" true (p1 = p2);
  let p3 = Workload.profile_for_site ~seed:10 (site_of_model 3) in
  Alcotest.(check bool) "seed changes profile" true (p1 <> p3)

let test_profiles_diverse () =
  let m = Testbed.Info_model.generate ~seed:4 in
  let classes =
    Array.to_list m.Testbed.Info_model.sites
    |> List.map (fun s -> (Workload.profile_for_site ~seed:9 s).Workload.site_class)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "several classes in use" true (List.length classes >= 3)

let test_palette_sizes () =
  let m = Testbed.Info_model.generate ~seed:4 in
  Array.iter
    (fun s ->
      let p = Workload.profile_for_site ~seed:9 s in
      let n = List.length p.Workload.palette in
      Alcotest.(check bool) "palette non-empty" true (n >= 1);
      Alcotest.(check bool) "palette bounded" true (n <= 45);
      (* No duplicate services. *)
      Alcotest.(check int) "unique"
        (List.length (List.sort_uniq compare p.Workload.palette))
        n)
    m.Testbed.Info_model.sites

let test_activity_seasonal_peak () =
  (* The SC week (week ~45.5) must dominate a quiet summer week. *)
  let summer_avg =
    let sum = ref 0.0 in
    for d = 180 to 200 do
      sum := !sum +. Workload.activity ~seed:9 (float_of_int d *. 86400.0)
    done;
    !sum /. 21.0
  in
  let sc_avg =
    let sum = ref 0.0 in
    for d = 313 to 320 do
      sum := !sum +. Workload.activity ~seed:9 (float_of_int d *. 86400.0)
    done;
    !sum /. 8.0
  in
  Alcotest.(check bool) "SC'24 ramp dominates" true (sc_avg > 2.0 *. summer_avg)

let test_activity_positive () =
  for d = 0 to 364 do
    let a = Workload.activity ~seed:9 (float_of_int d *. 86400.0) in
    Alcotest.(check bool) "positive" true (a > 0.0)
  done

(* --- Slice_process --- *)

let year = 365.0 *. 86400.0

let slices = lazy (Slice_process.generate ~seed:21 ~horizon:year)

let test_slice_spread () =
  let fractions = Slice_process.spread_fractions (Lazy.force slices) ~max_sites:8 in
  Alcotest.(check bool) "~66.5% single site" true
    (Float.abs (fractions.(0) -. 0.665) < 0.03);
  Alcotest.(check bool) "monotone tail" true (fractions.(1) > fractions.(3))

let test_slice_durations () =
  let cdf = Slice_process.duration_cdf (Lazy.force slices) ~at_hours:[ 24.0 ] in
  match cdf with
  | [ (_, frac) ] ->
    Alcotest.(check bool) "~75% within 24h" true (Float.abs (frac -. 0.75) < 0.05)
  | _ -> Alcotest.fail "expected one point"

let test_slice_concurrency () =
  let series =
    Slice_process.concurrency_series (Lazy.force slices) ~step:21600.0 ~horizon:year
  in
  let mean, sd, maximum = Slice_process.concurrency_stats series in
  Alcotest.(check bool) "mean near 85" true (Float.abs (mean -. 85.0) < 25.0);
  Alcotest.(check bool) "sd substantial" true (sd > 25.0 && sd < 90.0);
  Alcotest.(check bool) "max below hard cap" true (maximum < 450);
  Alcotest.(check bool) "max well above mean" true (float_of_int maximum > mean +. sd)

(* --- Driver --- *)

let test_driver_attaches_and_detaches () =
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:5 engine in
  let driver = Driver.create fabric ~seed:5 in
  Driver.start driver ~until:7200.0;
  Simcore.Engine.run ~until:7200.0 engine;
  Alcotest.(check bool) "some flows live" true (Driver.live_flow_count driver > 0);
  (* Every live flow resolves to a spec that is active now. *)
  let now = Simcore.Engine.now engine in
  let m = Testbed.Fablib.model fabric in
  Array.iter
    (fun (site : Testbed.Info_model.site) ->
      let sw = Testbed.Fablib.switch fabric ~site:site.Testbed.Info_model.name in
      List.iter
        (fun port ->
          List.iter
            (fun (a : Testbed.Switch.attachment) ->
              match Driver.resolver driver a.Testbed.Switch.flow with
              | None -> Alcotest.fail "attached flow lacks spec"
              | Some spec ->
                Alcotest.(check bool) "spec active" true
                  (Flow_model.end_time spec >= now))
            (Testbed.Switch.attachments sw ~port))
        (Testbed.Fablib.all_ports fabric ~site:site.Testbed.Info_model.name))
    m.Testbed.Info_model.sites;
  (* After all flows expire, everything detaches. *)
  Simcore.Engine.run engine;
  Alcotest.(check int) "all flows detached eventually" 0
    (Driver.live_flow_count driver)

let test_driver_counters_move () =
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:6 engine in
  let driver = Driver.create fabric ~seed:6 in
  Driver.start driver ~until:3600.0;
  Simcore.Engine.run ~until:3600.0 engine;
  let total = ref 0.0 in
  let m = Testbed.Fablib.model fabric in
  Array.iter
    (fun (site : Testbed.Info_model.site) ->
      let name = site.Testbed.Info_model.name in
      let sw = Testbed.Fablib.switch fabric ~site:name in
      List.iter
        (fun port ->
          let c = Testbed.Switch.read_counters sw ~port in
          total := !total +. c.Testbed.Switch.tx_bytes)
        (Testbed.Fablib.all_ports fabric ~site:name))
    m.Testbed.Info_model.sites;
  Alcotest.(check bool) "traffic crossed the testbed" true (!total > 1e9)

let suites =
  [
    ( "traffic.flow_model",
      [
        Alcotest.test_case "rates and lifetime" `Quick test_spec_rates;
        Alcotest.test_case "bad template rejected" `Quick test_spec_rejects_bad_template;
        Alcotest.test_case "poisson frame count" `Quick test_frames_in_window_count;
        Alcotest.test_case "frames ordered in window" `Quick test_frames_ordered_and_in_window;
        Alcotest.test_case "no frames outside lifetime" `Quick test_no_frames_outside_window;
        Alcotest.test_case "subflows vary 5-tuples" `Quick test_subflows_vary_tuples;
        Alcotest.test_case "single subflow stable" `Quick test_single_subflow_single_tuple;
        Alcotest.test_case "sizes clamped" `Quick test_frames_respect_size_bounds;
      ] );
    ( "traffic.stack_builder",
      [
        Alcotest.test_case "forward validates" `Quick test_forward_validates;
        Alcotest.test_case "service port" `Quick test_forward_has_service_port;
        Alcotest.test_case "app headers" `Quick test_forward_app_headers;
        Alcotest.test_case "pseudowire structure" `Quick test_pseudowire_structure;
        Alcotest.test_case "reverse swaps endpoints" `Quick test_reverse_swaps_and_validates;
      ] );
    ( "traffic.workload",
      [
        Alcotest.test_case "profiles persistent" `Quick test_profiles_persistent;
        Alcotest.test_case "profiles diverse" `Quick test_profiles_diverse;
        Alcotest.test_case "palettes sane" `Quick test_palette_sizes;
        Alcotest.test_case "seasonal peak" `Quick test_activity_seasonal_peak;
        Alcotest.test_case "activity positive" `Quick test_activity_positive;
      ] );
    ( "traffic.slice_process",
      [
        Alcotest.test_case "site spread" `Slow test_slice_spread;
        Alcotest.test_case "durations" `Slow test_slice_durations;
        Alcotest.test_case "concurrency" `Slow test_slice_concurrency;
      ] );
    ( "traffic.driver",
      [
        Alcotest.test_case "attach/detach lifecycle" `Slow test_driver_attaches_and_detaches;
        Alcotest.test_case "counters move" `Slow test_driver_counters_move;
      ] );
  ]
