let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_profile_figures (p : Profile.t) ~dir =
  ensure_dir dir;
  let out = ref [] in
  let emit name svg =
    Svg.write svg (Filename.concat dir name);
    out := name :: !out
  in
  (* Fig 11: per-site header diversity, pseudonymized and sorted. *)
  let stats =
    List.filter (fun s -> s.Profile.frames > 0) p.Profile.header_stats
    |> List.sort (fun a b -> compare b.Profile.distinct_headers a.Profile.distinct_headers)
  in
  emit "fig11_headers.svg"
    (Charts.grouped_bar_chart ~title:"Distinct headers and deepest stack per site"
       ~x_axis:"site (pseudonymized)"
       ~y_axis:{ Charts.label = "count"; log = false }
       ~series:[ "distinct headers"; "deepest stack" ]
       (List.mapi
          (fun i s ->
            ( Printf.sprintf "S%d" i,
              [ float_of_int s.Profile.distinct_headers;
                float_of_int s.Profile.deepest_stack ] ))
          stats));
  (* Fig 12: occurrence of the most prevalent headers. *)
  let top_occurrence = List.filteri (fun i _ -> i < 14) p.Profile.occurrence in
  emit "fig12_occurrence.svg"
    (Charts.bar_chart ~title:"Occurrence of protocol headers"
       ~x_axis:"protocol"
       ~y_axis:{ Charts.label = "% of frames"; log = false }
       top_occurrence);
  (* Fig 13: flows per sample histogram (log y). *)
  let flows_hist =
    let h =
      Netcore.Histogram.create [| 1.0; 10.0; 100.0; 1000.0; 3000.0; 10_000.0; 20_000.0 |]
    in
    Array.iter (fun v -> Netcore.Histogram.add h v) p.Profile.flows_per_sample;
    h
  in
  let flows_data =
    let counts = Netcore.Histogram.counts flows_hist in
    Array.to_list
      (Array.mapi
         (fun i c -> (Netcore.Histogram.bin_label flows_hist i, float_of_int c))
         counts)
  in
  emit "fig13_flows.svg"
    (Charts.bar_chart ~title:"Distinct flows per 20s sample"
       ~x_axis:"flows in sample"
       ~y_axis:{ Charts.label = "samples"; log = true }
       flows_data);
  (* Fig 15 aggregate. *)
  emit "fig15_sizes.svg"
    (Charts.histogram_chart ~title:"Frame-size distribution (weighted)"
       ~x_axis:"frame size (bytes)" p.Profile.size_histogram);
  (* Fig 15 per-site jumbo share. *)
  let jumbo_by_site =
    List.filteri (fun i _ -> i < 30)
      (List.mapi
         (fun i (_, h) ->
           let fr = Netcore.Histogram.fractions h in
           let jumbo =
             if Array.length fr >= 9 then 100.0 *. (fr.(6) +. fr.(7) +. fr.(8))
             else 0.0
           in
           (Printf.sprintf "S%d" i, jumbo))
         (List.filter
            (fun (_, h) -> Netcore.Histogram.total h > 0)
            p.Profile.per_site_size))
  in
  emit "fig15_jumbo_by_site.svg"
    (Charts.bar_chart ~title:"Jumbo-frame share per site"
       ~x_axis:"site (pseudonymized)"
       ~y_axis:{ Charts.label = "% of frames > 1518B"; log = false }
       jumbo_by_site);
  (* Flow-size CDF from the aggregation. *)
  let sizes =
    List.map (fun s -> Float.max 1.0 s.Flows.bytes) p.Profile.flow_summaries
    |> List.sort compare
  in
  (match sizes with
  | [] -> ()
  | sizes ->
    let n = float_of_int (List.length sizes) in
    let cdf =
      List.mapi (fun i v -> (log10 v, float_of_int (i + 1) /. n)) sizes
    in
    (* Decimate to keep the SVG small. *)
    let step = max 1 (List.length cdf / 300) in
    let cdf = List.filteri (fun i _ -> i mod step = 0) cdf in
    emit "flow_sizes.svg"
      (Charts.cdf_chart ~title:"Aggregated flow sizes"
         ~x_axis:"log10(flow bytes)" cdf));
  List.rev !out
