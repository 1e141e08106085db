(* Figs 11, 12, 13, 15 and the §8.2 headline numbers: the traffic
   profile gathered by running Patchwork occasions across the year and
   pushing every capture through the analysis pipeline.

   The paper ran 69 occasions over 13 months with 12-24 h of sampling
   each; this reproduction runs a scaled-down schedule (occasions spread
   over the year, a few hours each) — the distributions it measures are
   stationary properties of the workload model, so the scaling does not
   change their shape. *)

module Profile = Analysis.Profile

let default_occasions = 12
let default_hours = 3.0

let build_profile ?(occasions = default_occasions) ?(hours = default_hours) () =
  (* Stream occasions through the profile builder: each report's
     captures are absorbed into aggregates and then dropped, which is
     what keeps a multi-occasion profile in memory (the real captures
     ran to dozens of gigabytes).  The weekly service's schedule runs
     them, simulating one occasion while the previous one is absorbed. *)
  let builder = Profile.Builder.create () in
  let occasion pool i =
    (* Spread occasions across the year, as the weekly runs were. *)
    let day = 20 + (i * 340 / max 1 occasions) in
    let start_time = float_of_int day *. Netcore.Timebase.day in
    let config =
      {
        Patchwork.Config.default with
        Patchwork.Config.samples_per_run = 4;
        max_frames_per_sample = 2_500;
      }
    in
    Paper.run_profile_occasion ~config ~pool ~occasion_seed:(7000 + i)
      ~start_time ~duration:(hours *. Netcore.Timebase.hour) ()
  in
  ignore
    (Patchwork.Pipeline.run_within
       ~domains:(Domain.recommended_domain_count ())
       ~n:occasions ~produce:occasion
       ~consume:(fun pool _ report ->
         Profile.Builder.add_report ~pool builder report));
  Profile.Builder.finish builder

let profile_cache : Profile.t option ref = ref None

let get_profile () =
  match !profile_cache with
  | Some p -> p
  | None ->
    Printf.printf "(building year profile: %d occasions x %.0f h ...)\n%!"
      default_occasions default_hours;
    let p = build_profile () in
    profile_cache := Some p;
    p

let fig11 () =
  Paper.section "Fig 11: distinct headers and deepest stacks per site";
  let profile = get_profile () in
  let stats =
    List.filter (fun s -> s.Profile.frames > 0) profile.Profile.header_stats
  in
  let sorted =
    List.sort (fun a b -> compare b.Profile.distinct_headers a.Profile.distinct_headers) stats
  in
  Paper.row "%-6s %16s %14s %9s" "site" "distinct headers" "deepest stack" "frames";
  List.iteri
    (fun i (s : Profile.site_headers) ->
      Paper.row "S%-5d %16d %14d %9d" i s.Profile.distinct_headers
        s.Profile.deepest_stack s.Profile.frames)
    sorted;
  let min_of f = List.fold_left (fun acc s -> min acc (f s)) max_int stats in
  let max_of f = List.fold_left (fun acc s -> max acc (f s)) 0 stats in
  Paper.row
    "paper: sites range from a handful to ~45 distinct headers; deepest stacks span 6-12.";
  Paper.row "measured: distinct %d-%d; deepest %d-%d"
    (min_of (fun s -> s.Profile.distinct_headers))
    (max_of (fun s -> s.Profile.distinct_headers))
    (min_of (fun s -> s.Profile.deepest_stack))
    (max_of (fun s -> s.Profile.deepest_stack))

let fig12 () =
  Paper.section "Fig 12: occurrence of protocol headers in testbed traffic";
  let profile = get_profile () in
  let show tok = Profile.occurrence_of profile.Profile.occurrence tok in
  Paper.row "%-10s %10s" "protocol" "% frames";
  List.iter
    (fun tok -> Paper.row "%-10s %9.1f%% %s" tok (show tok) (Paper.bar 40 (show tok /. 160.0)))
    [ "eth"; "vlan"; "mpls"; "pw"; "ipv4"; "ipv6"; "tcp"; "udp"; "tls"; "ssh"; "vxlan" ];
  Paper.row
    "paper: Ethernet >100%% (nested frames); most frames VLAN+MPLS tagged; IPv4 dominates; IPv6 = 1.93%%; TCP dominates.";
  Paper.row "measured: eth %.1f%%, ipv4 %.1f%%, ipv6 %.2f%%, tcp %.1f%% vs udp %.1f%%"
    (show "eth") (show "ipv4") profile.Profile.ipv6_percent (show "tcp") (show "udp")

let fig13 () =
  Paper.section "Fig 13: distinct flows per 20s sample";
  let profile = get_profile () in
  let flows = profile.Profile.flows_per_sample in
  let edges = [| 1.0; 10.0; 100.0; 1000.0; 3000.0; 10_000.0; 20_000.0 |] in
  let h = Netcore.Histogram.create edges in
  Array.iter (fun v -> Netcore.Histogram.add h v) flows;
  let counts = Netcore.Histogram.counts h in
  Paper.row "%-18s %8s" "flows in sample" "samples";
  Array.iteri
    (fun i c ->
      Paper.row "%-18s %8d %s" (Netcore.Histogram.bin_label h i) c
        (Paper.bar 40 (float_of_int c /. float_of_int (max 1 (Array.length flows)))))
    counts;
  let below_3000 =
    Array.fold_left (fun acc v -> if v < 3000.0 then acc + 1 else acc) 0 flows
  in
  let above_20000 =
    Array.fold_left (fun acc v -> if v > 20_000.0 then acc + 1 else acc) 0 flows
  in
  Paper.row
    "paper: most samples contain fewer than 3,000 distinct flows; a handful exceed 20,000.";
  Paper.row "measured: %.1f%% of %d samples < 3000 flows; %d samples > 20000"
    (100.0 *. float_of_int below_3000 /. float_of_int (max 1 (Array.length flows)))
    (Array.length flows) above_20000

let fig15 () =
  Paper.section "Fig 15 (+ §8.2 frame sizes): frame-size distribution";
  let profile = get_profile () in
  let h = profile.Profile.size_histogram in
  let fracs = Netcore.Histogram.fractions h in
  Paper.row "%-16s %9s" "size bin (B)" "% frames";
  Array.iteri
    (fun i f ->
      Paper.row "%-16s %8.2f%% %s" (Netcore.Histogram.bin_label h i) (100.0 *. f)
        (Paper.bar 40 f))
    fracs;
  (* Paper's headline bins: 1519-2047 = 74.7%, 65-127 = 14.15%,
     128-255 = 5.79%.  Our edges: index 6 = [1519,2048), 1 = [64,128),
     2 = [128,256). *)
  Paper.row
    "paper: 1519-2047 B = 74.7%%, 65-127 B = 14.15%%, 128-255 B = 5.79%% of frames.";
  Paper.row "measured: 1519-2047 B = %.1f%%, 64-127 B = %.1f%%, 128-255 B = %.1f%%"
    (100.0 *. fracs.(6)) (100.0 *. fracs.(1)) (100.0 *. fracs.(2));
  (* Per-site breakdown, pseudonymized as in the paper. *)
  Paper.section "Fig 15 per-site jumbo share (pseudonymized)";
  List.iteri
    (fun i (_, sh) ->
      let sfr = Netcore.Histogram.fractions sh in
      let jumbo = sfr.(6) +. sfr.(7) +. sfr.(8) in
      if Netcore.Histogram.total sh > 0 then
        Paper.row "S%-4d jumbo %5.1f%% %s" i (100.0 *. jumbo) (Paper.bar 40 jumbo))
    profile.Profile.per_site_size

let section_8_2_flows () =
  Paper.section "§8.2 flow aggregation across samples";
  let profile = get_profile () in
  let summaries = profile.Profile.flow_summaries in
  let h = Analysis.Flows.size_log_histogram summaries in
  Paper.row "%-20s %8s" "flow size (bytes)" "flows";
  List.iter
    (fun (k, c) ->
      Paper.row "[2^%-2d, 2^%-2d)        %8d" k (k + 1) c)
    (Netcore.Histogram.Log2.buckets h);
  (match Analysis.Flows.top_n summaries 1 with
  | [ biggest ] ->
    Paper.row
      "paper: most flows are tiny, but some reach ~100 GB.  measured: largest flow %.1f GB across %d flows"
      (biggest.Analysis.Flows.bytes /. 1e9)
      (List.length summaries)
  | _ -> Paper.row "no flows observed")

let summary () =
  Paper.section "§8.2 profile summary";
  let profile = get_profile () in
  Format.printf "%a%!" Profile.pp_summary profile
