open Hostmodel

(* --- Host profile --- *)

let test_core_scaling_diminishes () =
  let p = Host_profile.default in
  let e1 = Host_profile.effective_cores p 1 in
  let e2 = Host_profile.effective_cores p 2 in
  let e16 = Host_profile.effective_cores p 16 in
  Alcotest.(check (float 1e-9)) "one core is one core" 1.0 e1;
  Alcotest.(check bool) "two cores under 2x" true (e2 < 2.0 && e2 > 1.5);
  Alcotest.(check bool) "sixteen cores well under 16x" true (e16 < 9.0 && e16 > 5.0)

let test_capacity_decreases_with_truncation () =
  let p = Host_profile.default in
  let c64 = Host_profile.dpdk_capacity_pps p ~cores:4 ~truncation:64 in
  let c200 = Host_profile.dpdk_capacity_pps p ~cores:4 ~truncation:200 in
  Alcotest.(check bool) "64B cheaper than 200B" true (c64 > c200)

let test_kernel_capacity_ballpark () =
  (* ~0.7 Mpps: the 8.5 Gbps @1500B lossless bound of the paper. *)
  let c = Host_profile.kernel_capacity_pps Host_profile.default in
  Alcotest.(check bool) "0.6-0.8 Mpps" true (c > 0.6e6 && c < 0.8e6)

(* --- Page cache --- *)

let cache ?(bg = 10.0) ?(hard = 20.0) () =
  Page_cache.create ~free_cache_bytes:1e9 ~drain_rate:1e8
    ~dirty_background_ratio:bg ~dirty_ratio:hard

let test_cache_write_and_drain () =
  let c = cache () in
  Page_cache.write c 5e8;
  Alcotest.(check (float 1e-9)) "fraction" 0.5 (Page_cache.dirty_fraction c);
  Page_cache.advance c ~dt:1.0;
  Alcotest.(check (float 1e-9)) "drained 1e8" 0.4 (Page_cache.dirty_fraction c)

let test_cache_no_drain_below_background () =
  let c = cache () in
  Page_cache.write c 5e7;
  (* 5% < 10% background. *)
  Page_cache.advance c ~dt:10.0;
  Alcotest.(check (float 1e-9)) "nothing drained below background" 0.05
    (Page_cache.dirty_fraction c)

let test_cache_thresholds () =
  let c = cache () in
  Alcotest.(check (float 1e-9)) "midpoint" 0.15 (Page_cache.throttle_threshold c)

let test_throttle_kicks_in_at_midpoint () =
  let c = cache () in
  Page_cache.write c 1.4e8;
  (* 14% < 15% midpoint *)
  Alcotest.(check (float 1e-9)) "no throttle below midpoint" 1.0
    (Page_cache.throttle_factor c);
  Page_cache.write c 0.2e8;
  (* 16% > midpoint *)
  Alcotest.(check bool) "throttled past midpoint" true
    (Page_cache.throttle_factor c < 1.0);
  Page_cache.write c 1e9;
  (* saturated *)
  Alcotest.(check bool) "heavy throttle at dirty_ratio" true
    (Page_cache.throttle_factor c <= 0.05)

let test_latency_multiplier_cliff () =
  (* The paper's key observation: the latency cliff sits at the
     midpoint of the two ratios, not at dirty_ratio. *)
  let c = cache () in
  Page_cache.write c 0.9e8 (* 9%: below background *);
  let low = Page_cache.writer_latency_multiplier c in
  Page_cache.write c 0.3e8 (* 12%: between background and midpoint *);
  let mid = Page_cache.writer_latency_multiplier c in
  Page_cache.write c 0.5e8 (* 17%: past midpoint *);
  let high = Page_cache.writer_latency_multiplier c in
  Alcotest.(check (float 1e-9)) "baseline" 1.0 low;
  Alcotest.(check bool) "flush competition grows" true (mid > 1.0 && mid < 10.0);
  Alcotest.(check bool) "throttled is orders of magnitude" true (high > 30.0)

let test_cache_conservation () =
  let c = cache () in
  Page_cache.write c 8e8;
  Page_cache.advance c ~dt:3.0;
  (* Dirty stays above the background ratio, so writeback drains at
     its full rate for all three seconds. *)
  let expected_dirty = Page_cache.total_written c -. (3.0 *. 1e8) in
  Alcotest.(check (float 1.0)) "bytes conserved" expected_dirty
    (Page_cache.dirty_fraction c *. 1e9)

(* --- DPDK path --- *)

let test_dpdk_lossless_when_overprovisioned () =
  let config = { Dpdk_path.default_config with cores = 15; baseline_loss = 0.0 } in
  let r = Dpdk_path.run config ~offered_rate:10e9 ~frame_size:1514 ~duration:5.0 in
  Alcotest.(check (float 0.02)) "no loss" 0.0 r.Dpdk_path.loss_percent

let test_dpdk_lossy_when_underprovisioned () =
  let config = { Dpdk_path.default_config with cores = 1 } in
  let r = Dpdk_path.run config ~offered_rate:100e9 ~frame_size:512 ~duration:5.0 in
  Alcotest.(check bool) "heavy loss on one core" true (r.Dpdk_path.loss_percent > 50.0)

let test_dpdk_conservation () =
  let r =
    Dpdk_path.run { Dpdk_path.default_config with baseline_loss = 0.0 }
      ~offered_rate:50e9 ~frame_size:1514 ~duration:5.0
  in
  (* Captured + dropped <= offered (the difference is what is still
     queued at the end). *)
  Alcotest.(check bool) "conservation" true
    (r.Dpdk_path.captured_frames +. r.Dpdk_path.dropped_frames
    <= r.Dpdk_path.offered_frames +. 1.0)

let test_dpdk_64b_needs_fewer_cores () =
  (* The Tables 1 vs 2 effect: at the same offered load, 64B truncation
     loses less than 200B with the same cores. *)
  let run trunc =
    Dpdk_path.run
      { Dpdk_path.default_config with cores = 4; truncation = trunc; baseline_loss = 0.0 }
      ~offered_rate:100e9 ~frame_size:1514 ~duration:5.0
  in
  let r200 = run 200 and r64 = run 64 in
  Alcotest.(check bool) "64B <= 200B loss" true
    (r64.Dpdk_path.loss_percent <= r200.Dpdk_path.loss_percent)

let test_dpdk_tight_thresholds_throttle () =
  (* 512B @ 60G writes ~2.8 GB/s against a 1 GB/s disk; with 10:20
     thresholds the writer hits the midpoint within seconds. *)
  let tight =
    { Dpdk_path.default_config with
      cores = 15; dirty_background_ratio = 10.0; dirty_ratio = 20.0 }
  in
  let r = Dpdk_path.run tight ~offered_rate:60e9 ~frame_size:512 ~duration:30.0 in
  Alcotest.(check bool) "throttled" true (r.Dpdk_path.throttled_seconds > 1.0);
  Alcotest.(check bool) "loss from storage bottleneck" true
    (r.Dpdk_path.loss_percent > 5.0);
  let relaxed = { tight with dirty_background_ratio = 60.0; dirty_ratio = 80.0 } in
  let r2 = Dpdk_path.run relaxed ~offered_rate:60e9 ~frame_size:512 ~duration:30.0 in
  Alcotest.(check bool) "relaxed thresholds lose less" true
    (r2.Dpdk_path.loss_percent < r.Dpdk_path.loss_percent)

let test_dpdk_writev_histogram_populated () =
  let r =
    Dpdk_path.run Dpdk_path.default_config ~offered_rate:50e9 ~frame_size:1514
      ~duration:2.0
  in
  Alcotest.(check bool) "writev calls recorded" true
    (List.fold_left ( + ) 0
       (List.map snd (Netcore.Histogram.Log2.buckets r.Dpdk_path.writev_latency))
    > 1000)

let test_dpdk_capacity_rate_matches_table () =
  (* 5 cores / 200B truncation should saturate right around 100 Gbps of
     1514B frames (Table 1, row 1). *)
  let rate =
    Dpdk_path.capacity_rate { Dpdk_path.default_config with cores = 5 }
      ~frame_size:1514
  in
  Alcotest.(check bool) "capacity near 100G" true (rate > 90e9 && rate < 115e9)

(* --- Kernel path --- *)

let test_kernel_bound_ballpark () =
  let b = Kernel_path.lossless_bound ~frame_size:1500 in
  Alcotest.(check bool) "8-9.5 Gbps" true (b > 8e9 && b < 9.5e9)

let test_kernel_lossless_below_bound () =
  let r = Kernel_path.run ~offered_rate:6e9 ~frame_size:1500 ~duration:5.0 in
  Alcotest.(check bool) "tiny loss" true (r.Kernel_path.loss_percent < 0.05)

let test_kernel_lossy_above_bound () =
  let r = Kernel_path.run ~offered_rate:11e9 ~frame_size:1500 ~duration:5.0 in
  Alcotest.(check bool) "loses above bound" true (r.Kernel_path.loss_percent > 10.0)

let test_kernel_buffer_absorbs () =
  let r = Kernel_path.run ~offered_rate:6e9 ~frame_size:1500 ~duration:5.0 in
  Alcotest.(check bool) "buffer used but not full" true
    (r.Kernel_path.peak_buffer_used < 32.0 *. 1048576.0)

(* --- FPGA path --- *)

(* The verdict reads no frame: it forwards the 0th, 4th, 8th, ... frame
   it is shown. *)
let test_fpga_systematic_sampling () =
  let forwards = Fpga_path.create { Fpga_path.default_config with sample_1_in = 4 } in
  Alcotest.(check (list bool)) "every 4th, from the first"
    (List.init 100 (fun i -> i mod 4 = 0))
    (List.init 100 (fun _ -> forwards ()))

(* --- Anonymize --- *)

let common_prefix_len a b =
  let xa = Netcore.Ipv4_addr.to_int32 a and xb = Netcore.Ipv4_addr.to_int32 b in
  let x = Int32.logxor xa xb in
  if Int32.equal x 0l then 32
  else begin
    let rec count i =
      if Int32.logand (Int32.shift_right_logical x (31 - i)) 1l = 1l then i
      else count (i + 1)
    in
    count 0
  end

let test_anonymize_deterministic () =
  let t = Anonymize.create ~key:42 in
  let a = Netcore.Ipv4_addr.of_string "10.1.2.3" in
  Alcotest.(check bool) "same output" true
    (Netcore.Ipv4_addr.equal (Anonymize.ipv4 t a) (Anonymize.ipv4 t a));
  let t2 = Anonymize.create ~key:43 in
  Alcotest.(check bool) "key changes output" false
    (Netcore.Ipv4_addr.equal (Anonymize.ipv4 t a) (Anonymize.ipv4 t2 a))

let test_anonymize_changes_address () =
  let t = Anonymize.create ~key:42 in
  let a = Netcore.Ipv4_addr.of_string "192.168.1.1" in
  Alcotest.(check bool) "address changed" false
    (Netcore.Ipv4_addr.equal a (Anonymize.ipv4 t a))

let qcheck_prefix_preserving =
  QCheck.Test.make ~name:"anonymization preserves common prefix length" ~count:500
    QCheck.(triple small_int small_int small_int)
    (fun (key, x, y) ->
      let t = Anonymize.create ~key in
      let a = Netcore.Ipv4_addr.of_int32 (Int32.of_int x) in
      let b = Netcore.Ipv4_addr.of_int32 (Int32.of_int y) in
      let before = common_prefix_len a b in
      let after = common_prefix_len (Anonymize.ipv4 t a) (Anonymize.ipv4 t b) in
      before = after)

let qcheck_bijective_sample =
  QCheck.Test.make ~name:"anonymization is injective on samples" ~count:300
    QCheck.(pair small_int (list_of_size (QCheck.Gen.return 50) int))
    (fun (key, xs) ->
      let t = Anonymize.create ~key in
      let inputs = List.sort_uniq compare (List.map Int32.of_int xs) in
      let outputs =
        List.sort_uniq compare
          (List.map
             (fun x ->
               Netcore.Ipv4_addr.to_int32
                 (Anonymize.ipv4 t (Netcore.Ipv4_addr.of_int32 x)))
             inputs)
      in
      List.length inputs = List.length outputs)

let suites =
  [
    ( "hostmodel.profile",
      [
        Alcotest.test_case "core contention" `Quick test_core_scaling_diminishes;
        Alcotest.test_case "truncation cost" `Quick test_capacity_decreases_with_truncation;
        Alcotest.test_case "kernel capacity" `Quick test_kernel_capacity_ballpark;
      ] );
    ( "hostmodel.page_cache",
      [
        Alcotest.test_case "write and drain" `Quick test_cache_write_and_drain;
        Alcotest.test_case "no drain below background" `Quick test_cache_no_drain_below_background;
        Alcotest.test_case "thresholds" `Quick test_cache_thresholds;
        Alcotest.test_case "throttle at midpoint" `Quick test_throttle_kicks_in_at_midpoint;
        Alcotest.test_case "latency cliff" `Quick test_latency_multiplier_cliff;
        Alcotest.test_case "byte conservation" `Quick test_cache_conservation;
      ] );
    ( "hostmodel.dpdk",
      [
        Alcotest.test_case "lossless overprovisioned" `Quick test_dpdk_lossless_when_overprovisioned;
        Alcotest.test_case "lossy underprovisioned" `Quick test_dpdk_lossy_when_underprovisioned;
        Alcotest.test_case "frame conservation" `Quick test_dpdk_conservation;
        Alcotest.test_case "64B beats 200B" `Quick test_dpdk_64b_needs_fewer_cores;
        Alcotest.test_case "tight thresholds throttle" `Quick test_dpdk_tight_thresholds_throttle;
        Alcotest.test_case "writev histogram" `Quick test_dpdk_writev_histogram_populated;
        Alcotest.test_case "capacity matches table 1" `Quick test_dpdk_capacity_rate_matches_table;
      ] );
    ( "hostmodel.kernel",
      [
        Alcotest.test_case "lossless bound" `Quick test_kernel_bound_ballpark;
        Alcotest.test_case "lossless below" `Quick test_kernel_lossless_below_bound;
        Alcotest.test_case "lossy above" `Quick test_kernel_lossy_above_bound;
        Alcotest.test_case "buffer absorbs" `Quick test_kernel_buffer_absorbs;
      ] );
    ( "hostmodel.fpga",
      [
        Alcotest.test_case "systematic sampling" `Quick test_fpga_systematic_sampling;
      ] );
    ( "hostmodel.anonymize",
      [
        Alcotest.test_case "deterministic" `Quick test_anonymize_deterministic;
        Alcotest.test_case "changes address" `Quick test_anonymize_changes_address;
        QCheck_alcotest.to_alcotest qcheck_prefix_preserving;
        QCheck_alcotest.to_alcotest qcheck_bijective_sample;
      ] );
  ]
