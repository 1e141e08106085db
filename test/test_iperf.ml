module Iperf = Traffic.Iperf

let test_converges_near_bottleneck () =
  let r =
    Iperf.run { Iperf.default with Iperf.streams = 4; duration = 10.0 }
  in
  let util = r.Iperf.mean_goodput /. 11e9 in
  Alcotest.(check bool) "85-100% of bottleneck" true (util > 0.85 && util <= 1.0);
  Alcotest.(check bool) "never exceeds bottleneck" true
    (r.Iperf.peak_goodput <= 11e9 *. 1.001)

let test_slow_start_ramp () =
  (* With a large window and short test, early intervals are below the
     late ones. *)
  let r =
    Iperf.run
      { Iperf.default with
        Iperf.streams = 1; duration = 5.0; rtt = 20e-3;
        receive_window = 64.0 *. 1048576.0; bottleneck_rate = 10e9 }
  in
  match r.Iperf.samples with
  | first :: rest when rest <> [] ->
    let last = List.nth rest (List.length rest - 1) in
    Alcotest.(check bool) "ramping" true
      (first.Iperf.goodput < last.Iperf.goodput)
  | _ -> Alcotest.fail "expected multiple samples"

let test_retransmits_only_under_contention () =
  (* Window-limited flow far below the bottleneck: no losses. *)
  let r =
    Iperf.run
      { Iperf.default with
        Iperf.streams = 1; receive_window = 100_000.0; bottleneck_rate = 100e9;
        duration = 5.0 }
  in
  Alcotest.(check int) "no retransmits" 0 r.Iperf.total_retransmits;
  (* Saturating flows do see losses. *)
  let r2 = Iperf.run { Iperf.default with Iperf.streams = 8; duration = 5.0 } in
  Alcotest.(check bool) "losses under contention" true (r2.Iperf.total_retransmits > 0)

let test_window_limited_throughput () =
  (* One stream, rwnd 1 MB, RTT 10 ms: cap = 800 Mbps regardless of the
     bottleneck. *)
  let r =
    Iperf.run
      { Iperf.default with
        Iperf.streams = 1; receive_window = 1048576.0; rtt = 10e-3;
        bottleneck_rate = 100e9; duration = 6.0 }
  in
  let cap = 1048576.0 *. 8.0 /. 10e-3 in
  Alcotest.(check bool) "window limited" true
    (r.Iperf.peak_goodput <= cap *. 1.05);
  Alcotest.(check bool) "approaches the window cap" true
    (r.Iperf.peak_goodput > cap *. 0.7)

let test_samples_cover_duration () =
  let r = Iperf.run { Iperf.default with Iperf.duration = 7.0 } in
  Alcotest.(check int) "one sample per second" 7 (List.length r.Iperf.samples)

let test_deterministic () =
  let cfg = { Iperf.default with Iperf.streams = 3 } in
  let a = Iperf.run ~seed:5 cfg and b = Iperf.run ~seed:5 cfg in
  Alcotest.(check (float 1e-9)) "same result" a.Iperf.mean_goodput b.Iperf.mean_goodput

(* Allocation simulation. *)
let test_can_satisfy () =
  let engine = Simcore.Engine.create () in
  let model = Testbed.Info_model.generate ~seed:3 in
  let alloc = Testbed.Allocator.create engine model in
  let site =
    (List.hd (Testbed.Info_model.profilable_sites model)).Testbed.Info_model.name
  in
  let vm n =
    { Testbed.Allocator.cores = 2; ram_gb = 8; storage_gb = 100;
      dedicated_nics = n; use_fpga = false }
  in
  let before = Testbed.Allocator.available alloc ~site in
  Alcotest.(check bool) "feasible" true
    (Testbed.Allocator.can_satisfy alloc { Testbed.Allocator.site; vms = [ vm 1 ] });
  Alcotest.(check bool) "infeasible" false
    (Testbed.Allocator.can_satisfy alloc { Testbed.Allocator.site; vms = [ vm 99 ] });
  (* The simulation is pure: no resources were consumed. *)
  Alcotest.(check bool) "no resources consumed" true
    (Testbed.Allocator.available alloc ~site = before)

(* Switch conservation property under random attach/detach. *)
let qcheck_switch_conservation =
  QCheck.Test.make ~name:"switch counters conserve attached rates" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Netcore.Rng.create seed in
      let engine = Simcore.Engine.create () in
      let sw = Testbed.Switch.create engine ~site_name:"Q" ~ports:4 ~line_rate:100e9 in
      (* Random schedule of attach/detach events with known total. *)
      let expected = ref 0.0 in
      let live = ref [] in
      let now = ref 0.0 in
      for flow = 0 to 19 do
        let dt = Netcore.Rng.float rng *. 10.0 in
        (* Advance the clock. *)
        Simcore.Engine.schedule engine ~delay:dt (fun _ -> ());
        Simcore.Engine.run engine;
        now := Simcore.Engine.now engine;
        (* Account bytes accrued by live flows over dt. *)
        expected := !expected +. List.fold_left (fun acc (_, r) -> acc +. (r *. dt)) 0.0 !live;
        if Netcore.Rng.bool rng && !live <> [] then begin
          let victim, rate = List.hd !live in
          ignore rate;
          Testbed.Switch.detach_flow sw ~flow:victim;
          live := List.tl !live
        end
        else begin
          let rate = 10.0 +. Netcore.Rng.float rng *. 1000.0 in
          Testbed.Switch.attach_flow sw ~port:(flow mod 4) ~dir:Testbed.Switch.Tx
            ~byte_rate:rate ~frame_rate:1.0 ~flow;
          live := (flow, rate) :: !live
        end
      done;
      (* Final accrual up to now is already counted; read counters. *)
      let total =
        List.fold_left
          (fun acc port ->
            acc +. (Testbed.Switch.read_counters sw ~port).Testbed.Switch.tx_bytes)
          0.0 [ 0; 1; 2; 3 ]
      in
      Float.abs (total -. !expected) < 1e-3 *. Float.max 1.0 !expected)

let suites =
  [
    ( "iperf.model",
      [
        Alcotest.test_case "converges near bottleneck" `Quick test_converges_near_bottleneck;
        Alcotest.test_case "slow start ramp" `Quick test_slow_start_ramp;
        Alcotest.test_case "losses only under contention" `Quick test_retransmits_only_under_contention;
        Alcotest.test_case "window limited" `Quick test_window_limited_throughput;
        Alcotest.test_case "samples cover duration" `Quick test_samples_cover_duration;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
      ] );
    ( "allocator.simulation",
      [ Alcotest.test_case "can_satisfy is pure" `Quick test_can_satisfy ] );
    ( "switch.properties",
      [ QCheck_alcotest.to_alcotest qcheck_switch_conservation ] );
  ]
