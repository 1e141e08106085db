(* Capture-host tuning: explore how cores, truncation and the kernel's
   dirty-page thresholds change capture loss — the design space behind
   the paper's Tables 1-2 and Fig. 14.

   Run with: dune exec examples/capture_tuning.exe *)

module Dpdk = Hostmodel.Dpdk_path

let () =
  print_endline "How many cores do I need to capture 100 Gbps of 1514B frames?";
  Printf.printf "%-7s %-12s %-12s\n" "cores" "64B trunc" "200B trunc";
  List.iter
    (fun cores ->
      let loss trunc =
        let config = { Dpdk.default_config with Dpdk.cores; truncation = trunc } in
        (Dpdk.run config ~offered_rate:100e9 ~frame_size:1514 ~duration:10.0)
          .Dpdk.loss_percent
      in
      Printf.printf "%-7d %10.2f%% %10.2f%%\n" cores (loss 64) (loss 200))
    [ 1; 2; 3; 4; 5; 6; 8 ];
  print_endline "";
  print_endline "How do the vm.dirty thresholds change sustained capture at 60 Gbps of 512B frames?";
  Printf.printf "%-12s %-10s %-12s %-12s\n" "thresholds" "loss" "throttled(s)" "peak cache";
  List.iter
    (fun (bg, hard) ->
      let config =
        {
          Dpdk.default_config with
          Dpdk.cores = 15;
          dirty_background_ratio = bg;
          dirty_ratio = hard;
        }
      in
      let r = Dpdk.run config ~offered_rate:60e9 ~frame_size:512 ~duration:60.0 in
      Printf.printf "%3.0f:%-8.0f %8.2f%% %12.1f %11.1f%%\n" bg hard
        r.Dpdk.loss_percent r.Dpdk.throttled_seconds r.Dpdk.peak_cache_used_percent)
    [ (10.0, 20.0); (20.0, 50.0); (40.0, 60.0); (60.0, 80.0) ];
  print_endline "";
  print_endline "Offloading to the FPGA: host load after filter + 1-in-N sampling";
  Printf.printf "%-10s %-14s %-14s\n" "sample" "host pps" "host bytes/s";
  List.iter
    (fun n ->
      let pps, bps =
        Hostmodel.Fpga_path.host_relief ~sample_1_in:n ~truncation:200 ~offered_pps:8.13e6
          ~avg_frame_size:1514.0
      in
      Printf.printf "1-in-%-5d %12.2e %12.2e\n" n pps bps)
    [ 1; 2; 8; 32 ]
