(* Fig 6: utilization of the testbed's network over each week of the
   year.  The paper sums the 5-minute byte-rate samples of every switch
   port per week; here the same quantity is computed from the workload
   model's expected per-site rates (the event-driven path produces the
   identical rates during occasions, but simulating 365 days of SNMP
   polling would only re-sample this function). *)

let weekly_avg_rates () =
  let model = Testbed.Info_model.generate ~seed:Paper.seed in
  let profiles =
    Array.to_list model.Testbed.Info_model.sites
    |> List.map (Traffic.Workload.profile_for_site ~seed:Paper.seed)
  in
  let weeks = 52 in
  let sample_step = Netcore.Timebase.hour *. 3.0 in
  let weekly = Array.make weeks 0.0 in
  let counts = Array.make weeks 0 in
  let t = ref 0.0 in
  let horizon = 365.0 *. Netcore.Timebase.day in
  while !t < horizon do
    let w = Netcore.Timebase.week_of !t in
    if w < weeks then begin
      let total =
        List.fold_left
          (fun acc p -> acc +. Traffic.Workload.expected_site_rate p ~seed:Paper.seed !t)
          0.0 profiles
      in
      weekly.(w) <- weekly.(w) +. (total *. 8.0);
      counts.(w) <- counts.(w) + 1
    end;
    t := !t +. sample_step
  done;
  Array.mapi
    (fun i v -> if counts.(i) = 0 then 0.0 else v /. float_of_int counts.(i))
    weekly

let fig6 () =
  Paper.section "Fig 6: weekly utilization of the testbed network (2024)";
  let avg = weekly_avg_rates () in
  let peak = Array.fold_left Float.max 0.0 avg in
  Paper.row "%-5s %12s" "week" "avg rate";
  Array.iteri
    (fun w v ->
      Paper.row "%-5d %9.2f Tbps %s" w (v /. 1e12) (Paper.bar 50 (v /. peak)))
    avg;
  let peak_week = ref 0 in
  Array.iteri (fun w v -> if v = peak then peak_week := w) avg;
  Paper.row
    "paper: activity ramps toward April and November; peak week (before SC'24) averaged 3.968 Tbps.";
  Paper.row "measured: peak week %d averaged %.3f Tbps" !peak_week (peak /. 1e12)
