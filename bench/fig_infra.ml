(* Figs. 2-5: the testbed resource & infrastructure study (§5). *)

module Info_model = Testbed.Info_model
module Slice_process = Traffic.Slice_process

let fig2 () =
  Paper.section "Fig 2: distribution of ports across production FABRIC sites";
  let model = Info_model.generate ~seed:Paper.seed in
  Paper.row "%-8s %8s %10s" "site" "uplinks" "downlinks";
  let total_up = ref 0 and total_down = ref 0 in
  Array.iter
    (fun (s : Info_model.site) ->
      total_up := !total_up + s.Info_model.uplinks;
      total_down := !total_down + s.Info_model.downlinks;
      Paper.row "%-8s %8d %10d" s.Info_model.name s.Info_model.uplinks
        s.Info_model.downlinks)
    model.Info_model.sites;
  Paper.row "%-8s %8d %10d" "TOTAL" !total_up !total_down;
  Paper.row
    "paper: most sites have a similar, small number of uplinks; every site has many more downlinks."

let year = 365.0 *. Netcore.Timebase.day

let slices = lazy (Slice_process.generate ~seed:Paper.seed ~horizon:year)

let fig3 () =
  Paper.section "Fig 3: slices vs number of sites used";
  let fractions = Slice_process.spread_fractions (Lazy.force slices) ~max_sites:10 in
  Paper.row "%-12s %10s %10s" "sites used" "fraction" "";
  Array.iteri
    (fun i f ->
      let label =
        if i = Array.length fractions - 1 then Printf.sprintf ">=%d" (i + 1)
        else string_of_int (i + 1)
      in
      Paper.row "%-12s %9.1f%% %s" label (100.0 *. f) (Paper.bar 40 f))
    fractions;
  Paper.row "paper: 66.5%% of all FABRIC slices use a single site.";
  Paper.row "measured: %.1f%%" (100.0 *. fractions.(0))

let fig4 () =
  Paper.section "Fig 4: duration of slices";
  let marks = [ 1.0; 6.0; 12.0; 24.0; 48.0; 96.0; 168.0; 336.0; 720.0 ] in
  let cdf = Slice_process.duration_cdf (Lazy.force slices) ~at_hours:marks in
  Paper.row "%-10s %8s" "<= hours" "CDF";
  List.iter (fun (h, f) -> Paper.row "%-10.0f %7.1f%% %s" h (100.0 *. f) (Paper.bar 40 f)) cdf;
  let at24 = List.assoc 24.0 cdf in
  Paper.row "paper: 75%% of slices last for 24 hours.  measured: %.1f%%"
    (100.0 *. at24)

let fig5 () =
  Paper.section "Fig 5: number of simultaneous slices over the year";
  let series =
    Slice_process.concurrency_series (Lazy.force slices)
      ~step:(6.0 *. Netcore.Timebase.hour) ~horizon:year
  in
  let mean, sd, maximum = Slice_process.concurrency_stats series in
  (* Print a weekly decimation of the series. *)
  Paper.row "%-6s %8s" "week" "slices";
  Array.iteri
    (fun i (t, v) ->
      if i mod 28 = 0 then
        Paper.row "%-6d %8d %s" (Netcore.Timebase.week_of t) v
          (Paper.bar 50 (float_of_int v /. 300.0)))
    series;
  Paper.row "paper: mean 85, stddev 52, max 272 simultaneous slices.";
  Paper.row "measured: mean %.0f, stddev %.0f, max %d" mean sd maximum
