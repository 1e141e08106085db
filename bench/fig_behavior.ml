(* Fig 10: behavior of Patchwork on the federation over a 4-month
   period — per-day outcomes of all-experiment runs across the sites,
   including the September back-end incidents. *)

module Coordinator = Patchwork.Coordinator

type day_tally = {
  mutable ok : int;
  mutable degraded : int;
  mutable failed : int;
  mutable incomplete : int;
}

let fig10 ?(first_day = 152) ?(last_day = 272) ?(stride = 2) () =
  Paper.section "Fig 10: Patchwork behavior over a 4-month period";
  (* Fast profiling configuration: outcome classification does not need
     frame materialization. *)
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 3;
      max_frames_per_sample = 1;
    }
  in
  let outage_days = [ 253; 254; 258 ] in
  let tallies = ref [] in
  let total = { ok = 0; degraded = 0; failed = 0; incomplete = 0 } in
  (* One occasion every [stride] days, on the weekly service's schedule:
     the next day simulates while this one is tallied. *)
  let occasion pool i =
    let d = first_day + (i * stride) in
    let start_time = float_of_int d *. Netcore.Timebase.day in
    let _, fabric, driver =
      Paper.fresh_occasion ~pool ~occasion_seed:(1000 + d) ~start_time ()
    in
    Paper.apply_external_pressure fabric ~at:start_time ~occasion_seed:(1000 + d);
    if List.mem d outage_days then
      Testbed.Allocator.set_outages
        (Testbed.Fablib.allocator fabric)
        [ (start_time, start_time +. Netcore.Timebase.day) ];
    ( d,
      Coordinator.run_occasion ~fabric ~driver ~config ~pool ~start_time
        ~duration:(0.75 *. Netcore.Timebase.hour) () )
  in
  let tally_day _ _ (d, report) =
    let tally = { ok = 0; degraded = 0; failed = 0; incomplete = 0 } in
    List.iter
      (fun (s : Coordinator.site_report) ->
        match s.Coordinator.outcome with
        | Coordinator.Site_success ->
          tally.ok <- tally.ok + 1;
          total.ok <- total.ok + 1
        | Coordinator.Site_degraded ->
          tally.degraded <- tally.degraded + 1;
          total.degraded <- total.degraded + 1
        | Coordinator.Site_failed _ ->
          tally.failed <- tally.failed + 1;
          total.failed <- total.failed + 1
        | Coordinator.Site_incomplete _ ->
          tally.incomplete <- tally.incomplete + 1;
          total.incomplete <- total.incomplete + 1)
      report.Coordinator.sites;
    tallies := (d, tally) :: !tallies
  in
  ignore
    (Patchwork.Pipeline.run_within
       ~domains:(Domain.recommended_domain_count ())
       ~n:(if last_day < first_day then 0
           else ((last_day - first_day) / stride) + 1)
       ~produce:occasion ~consume:tally_day);
  Paper.row "%-6s %4s %9s %7s %11s" "day" "ok" "degraded" "failed" "incomplete";
  List.iter
    (fun (d, t) ->
      Paper.row "%-6d %4d %9d %7d %11d%s" d t.ok t.degraded t.failed t.incomplete
        (if t.failed > 10 then "   <- back-end incident" else ""))
    (List.rev !tallies);
  let grand = total.ok + total.degraded + total.failed + total.incomplete in
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 grand) in
  Paper.row
    "paper: 79%% of site runs succeeded; ~20%% lacked resources or hit back-end errors; the rest crashed.";
  Paper.row
    "measured: success %.1f%% (of which degraded %.1f%%), failed %.1f%%, incomplete %.1f%%"
    (pct (total.ok + total.degraded))
    (pct total.degraded) (pct total.failed) (pct total.incomplete);
  List.rev !tallies
