(* The "figures" target: render every reproduced figure as SVG, the
   counterpart of the paper's visualization stage. *)

module Charts = Analysis.Charts
module Svg = Analysis.Svg

let dir = "figures"

let ensure_dir () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let emit name svg =
  Svg.write svg (Filename.concat dir name);
  Paper.row "  wrote %s/%s" dir name

let infra_figures () =
  let model = Testbed.Info_model.generate ~seed:Paper.seed in
  emit "fig2_ports.svg"
    (Charts.stacked_bar_chart ~title:"Ports across production sites"
       ~x_axis:"site"
       ~y_axis:{ Charts.label = "ports"; log = false }
       ~series:[ "uplinks"; "downlinks" ]
       (Array.to_list
          (Array.map
             (fun (s : Testbed.Info_model.site) ->
               ( s.Testbed.Info_model.name,
                 [ float_of_int s.Testbed.Info_model.uplinks;
                   float_of_int s.Testbed.Info_model.downlinks ] ))
             model.Testbed.Info_model.sites)));
  let slices = Lazy.force Fig_infra.slices in
  let fractions = Traffic.Slice_process.spread_fractions slices ~max_sites:10 in
  emit "fig3_spread.svg"
    (Charts.bar_chart ~title:"Slices vs number of sites used"
       ~x_axis:"sites used"
       ~y_axis:{ Charts.label = "% of slices"; log = false }
       (Array.to_list
          (Array.mapi
             (fun i f -> (string_of_int (i + 1), 100.0 *. f))
             fractions)));
  let marks = List.init 40 (fun i -> float_of_int (i + 1) *. 6.0) in
  let cdf = Traffic.Slice_process.duration_cdf slices ~at_hours:marks in
  emit "fig4_durations.svg"
    (Charts.cdf_chart ~title:"Duration of slices" ~x_axis:"hours" cdf);
  let series =
    Traffic.Slice_process.concurrency_series slices
      ~step:(12.0 *. Netcore.Timebase.hour)
      ~horizon:(365.0 *. Netcore.Timebase.day)
  in
  emit "fig5_concurrency.svg"
    (Charts.line_chart ~title:"Simultaneous slices over the year"
       ~x_axis:"week"
       ~y_axis:{ Charts.label = "live slices"; log = false }
       [
         ( "slices",
           Array.to_list
             (Array.map
                (fun (t, v) -> (t /. Netcore.Timebase.week, float_of_int v))
                series) );
       ])

let utilization_figure () =
  let avg = Fig_util.weekly_avg_rates () in
  emit "fig6_utilization.svg"
    (Charts.bar_chart ~title:"Weekly utilization of the testbed network"
       ~x_axis:"week"
       ~y_axis:{ Charts.label = "avg Tbps"; log = false }
       (Array.to_list (Array.mapi (fun w v -> (string_of_int w, v /. 1e12)) avg)))

let behavior_figure () =
  let tallies = Fig_behavior.fig10 ~stride:4 () in
  emit "fig10_behavior.svg"
    (Charts.stacked_bar_chart ~title:"Patchwork behavior over four months"
       ~x_axis:"day of year"
       ~y_axis:{ Charts.label = "site runs"; log = false }
       ~series:[ "success"; "degraded"; "failed"; "incomplete" ]
       (List.map
          (fun (d, (t : Fig_behavior.day_tally)) ->
            ( string_of_int d,
              [ float_of_int t.Fig_behavior.ok;
                float_of_int t.Fig_behavior.degraded;
                float_of_int t.Fig_behavior.failed;
                float_of_int t.Fig_behavior.incomplete ] ))
          tallies))

let profile_figures () =
  let profile = Fig_profile.get_profile () in
  List.iter
    (fun name -> Paper.row "  wrote %s/%s" dir name)
    (Analysis.Figures.write_profile_figures profile ~dir)

let run () =
  Paper.section "Rendering figures as SVG";
  ensure_dir ();
  infra_figures ();
  utilization_figure ();
  behavior_figure ();
  profile_figures ();
  Paper.row "figures written under %s/" dir
