(* The patchwork command-line tool.

   Subcommands mirror how the system is used:
     profile   run a profiling occasion on the simulated federation
     weekly    run the recurring profiling service; refresh the
               cumulative profile (CSVs + SVG figures)
     dissect   dissect a pcap/pcapng file and print abstract captures
     generate  synthesize a pcap of FABRIC-style traffic
     analyze   run the offline pipeline over a capture and emit CSVs
     query     scan a flow store written by weekly --flow-store
     report    render the per-occasion span tree + the loss ledger
     release   anonymize + truncate a capture for public release
     capacity  query the capture-path capacity models
     doctor    audit a live service or stored history: ledger
               conservation, segment validation, staleness, alerts

   profile/analyze/weekly/query accept --metrics-out FILE to dump the
   run's metrics registry and span trees as JSON; report renders such a
   snapshot. *)

open Cmdliner

let seed_arg =
  let doc = "Seed for the deterministic simulation." in
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Domains for the pipeline: $(b,dissect)'s digest, and \
     $(b,profile)'s synthesis, gathering and per-sample counting.  \
     Results are identical at any value; only wall-clock changes.  \
     Defaults to the machine's core count minus one."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let with_domains domains f =
  let size =
    match domains with Some n -> max 1 n | None -> Parallel.Pool.default_size ()
  in
  Parallel.Pool.with_pool ~size f

(* --- metrics snapshot output (shared by profile/analyze/weekly) --- *)

let metrics_out_arg =
  let doc =
    "Write a JSON metrics snapshot (registry counters/gauges/histograms \
     plus the finished span trees) to $(docv) when the command completes; \
     $(b,report --in) renders it."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let write_metrics out =
  match out with
  | None -> ()
  | Some path ->
    let snap = Obs.Registry.snapshot Obs.Registry.default in
    let body =
      Obs.Export.to_json_string ~spans:(Obs.Span.roots Obs.Span.default) snap
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc body;
        output_char oc '\n');
    Printf.printf "wrote metrics snapshot to %s\n" path

let counter_value name =
  match Obs.Registry.value Obs.Registry.default name with
  | Some (Obs.Registry.Counter v) -> v
  | _ -> 0.0

(* How the capture abstracted its records: one flow class per (spec,
   subflow) drawn.  Silent when nothing was captured. *)
let print_capture_classes ~classes ~records =
  if classes > 0.0 then
    Printf.printf "capture classes: %.0f for %.0f records\n" classes records

let print_capture_summary () =
  print_capture_classes
    ~classes:(counter_value "capture_classes_total")
    ~records:(counter_value "capture_records_total")

(* --- profile --- *)

let run_profile_occasion ~seed ~hours ~site ~max_frames pool =
  let start_time = 100.0 *. Netcore.Timebase.day in
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create ~pool fabric ~seed in
  let mode =
    match site with
    | None -> Patchwork.Config.All_experiments
    | Some s ->
      Patchwork.Config.Single_experiment
        [ (s, Testbed.Fablib.all_ports fabric ~site:s) ]
  in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.mode;
      max_frames_per_sample = max_frames;
      samples_per_run = 4;
      pool_size = Parallel.Pool.size pool;
    }
  in
  Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~pool ~start_time
    ~duration:(hours *. Netcore.Timebase.hour) ()

let profile_cmd =
  let hours =
    let doc = "Simulated duration of the occasion, in hours." in
    Arg.(value & opt float 2.0 & info [ "hours" ] ~docv:"H" ~doc)
  in
  let site =
    let doc =
      "Profile only this site (single-experiment style); default profiles \
       every profilable site (all-experiment mode)."
    in
    Arg.(value & opt (some string) None & info [ "site" ] ~docv:"SITE" ~doc)
  in
  let csv_dir =
    let doc = "Directory to write the Process-step CSV files into." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let max_frames =
    let doc = "Materialization budget per 20s sample." in
    Arg.(value & opt int 5000 & info [ "max-frames" ] ~docv:"N" ~doc)
  in
  let run seed hours site csv_dir max_frames domains metrics_out =
    (with_domains domains @@ fun pool ->
     let report = run_profile_occasion ~seed ~hours ~site ~max_frames pool in
     List.iter
       (fun (s : Patchwork.Coordinator.site_report) ->
         Printf.printf "%-6s %-10s %4d samples\n" s.Patchwork.Coordinator.report_site
           (match s.Patchwork.Coordinator.outcome with
           | Patchwork.Coordinator.Site_success -> "success"
           | Patchwork.Coordinator.Site_degraded -> "degraded"
           | Patchwork.Coordinator.Site_failed m -> "failed: " ^ m
           | Patchwork.Coordinator.Site_incomplete m -> "incomplete: " ^ m)
           (List.length s.Patchwork.Coordinator.site_samples))
       report.Patchwork.Coordinator.sites;
     let profile = Analysis.Profile.of_reports ~pool [ report ] in
     Format.printf "%a" Analysis.Profile.pp_summary profile;
     match csv_dir with
     | None -> ()
     | Some dir ->
       let files = Analysis.Profile.write_csv_files profile ~dir in
       Printf.printf "wrote %s under %s\n" (String.concat ", " files) dir);
    write_metrics metrics_out
  in
  let info =
    Cmd.info "profile" ~doc:"Run a profiling occasion on the simulated federation"
  in
  Cmd.v info
    Term.(
      const run $ seed_arg $ hours $ site $ csv_dir $ max_frames $ domains_arg
      $ metrics_out_arg)

(* --- dissect --- *)

let dissect_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.pcap")
  in
  let limit =
    Arg.(value & opt int 20 & info [ "n" ] ~docv:"N" ~doc:"Records to print.")
  in
  let run file limit =
    let acaps = Analysis.Digest.pcap_to_acaps (Analysis.Digest.read_file file) in
    Printf.printf "%d packets\n" (List.length acaps);
    List.iteri
      (fun i r ->
        if i < limit then print_endline (Dissect.Acap.to_line r))
      acaps;
    let profile = Analysis.Profile.of_records acaps in
    print_endline "occurrence:";
    List.iter
      (fun (tok, pct) -> Printf.printf "  %-10s %6.2f%%\n" tok pct)
      profile.Analysis.Profile.occurrence
  in
  let info = Cmd.info "dissect" ~doc:"Dissect a pcap file into abstract captures" in
  Cmd.v info Term.(const run $ file $ limit)

(* --- generate --- *)

let generate_cmd =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.pcap")
  in
  let count =
    Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Frames to generate.")
  in
  let service =
    Arg.(
      value
      & opt string "iperf3"
      & info [ "service" ] ~docv:"NAME" ~doc:"Application service to synthesize.")
  in
  let run seed out count service =
    let rng = Netcore.Rng.create seed in
    let svc =
      match Dissect.Services.by_name service with
      | Some s -> s
      | None -> failwith ("unknown service " ^ service)
    in
    let template =
      Traffic.Stack_builder.forward rng
        {
          Traffic.Stack_builder.vlan_id = 100 + Netcore.Rng.int rng 3900;
          mpls_labels = [ 16 + Netcore.Rng.int rng 100000 ];
          use_pseudowire = Netcore.Rng.bernoulli rng 0.3;
          use_vxlan = false;
          use_ipv6 = Netcore.Rng.bernoulli rng 0.02;
          service = svc;
        }
    in
    let spec =
      Traffic.Flow_model.make ~flow_id:1 ~template
        ~frame_size:(Netcore.Dist.Empirical [| (0.8, 1948.0); (0.2, 66.0) |])
        ~avg_frame_size:1572.0
        ~byte_rate:(float_of_int count *. 1572.0)
        ~start_time:0.0 ~duration:1.0 ~subflows:8 ()
    in
    let frames =
      Traffic.Flow_model.frames_in_window spec rng ~start_time:0.0 ~end_time:1.0
    in
    let w = Packet.Pcap.Writer.create () in
    List.iter (fun (ts, f) -> Packet.Pcap.Writer.add_frame w ~ts f) frames;
    Packet.Pcap.Writer.to_file w out;
    Printf.printf "wrote %d frames to %s\n" (Packet.Pcap.Writer.packet_count w) out
  in
  let info = Cmd.info "generate" ~doc:"Synthesize a pcap of FABRIC-style traffic" in
  Cmd.v info Term.(const run $ seed_arg $ out $ count $ service)

(* --- analyze --- *)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.pcap")
  in
  let csv_dir =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR")
  in
  (* The capture is profiled at weight 1 through the fold the weekly
     service runs on a pcap-carrying sample: no record is built. *)
  let run file csv_dir metrics_out =
    let p = Analysis.Profile.of_pcap (Analysis.Digest.read_file file) in
    let occ = p.Analysis.Profile.occurrence
    and h = p.Analysis.Profile.size_histogram
    and flows = p.Analysis.Profile.flow_summaries in
    Printf.printf "%d frames, %d distinct flows, %.2f%% IPv6, %.1f%% jumbo\n"
      p.Analysis.Profile.total_frames (List.length flows)
      p.Analysis.Profile.ipv6_percent
      (100.0 *. p.Analysis.Profile.jumbo_fraction);
    List.iter (fun (tok, pct) -> Printf.printf "  %-10s %6.2f%%\n" tok pct) occ;
    Array.iteri
      (fun i c ->
        if c > 0 then Printf.printf "  %-16s %d\n" (Netcore.Histogram.bin_label h i) c)
      (Netcore.Histogram.counts h);
    let total f =
      List.fold_left (fun acc (s : Analysis.Flows.summary) -> acc +. f s) 0.0 flows
    in
    Printf.printf "%d flows, %.0f keyed frames, %.0f bytes\n" (List.length flows)
      (total (fun s -> s.Analysis.Flows.frames))
      (total (fun s -> s.Analysis.Flows.bytes));
    List.iter
      (fun (f : Analysis.Flows.summary) ->
        Printf.printf "  %-48s %10.0f B %8.0f frames%s\n" f.Analysis.Flows.flow_key
          f.Analysis.Flows.bytes f.Analysis.Flows.frames
          (if f.Analysis.Flows.rst_seen then "  RST" else ""))
      (Analysis.Flows.top_n flows 10);
    (match csv_dir with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let write name header rows =
        Analysis.Report.write_file (Filename.concat dir name)
          (Analysis.Report.csv_of_rows ~header rows)
      in
      write "occurrence.csv" [ "protocol"; "percent" ]
        (Analysis.Report.occurrence_rows occ);
      write "frame_sizes.csv" [ "bin"; "count"; "fraction" ]
        (Analysis.Report.histogram_rows h);
      write "flows.csv" [ "flow"; "frames"; "bytes"; "first"; "last"; "rst" ]
        (Analysis.Report.flow_rows flows);
      Printf.printf "wrote CSVs under %s\n" dir);
    write_metrics metrics_out
  in
  let info = Cmd.info "analyze" ~doc:"Run the offline analysis over a pcap" in
  Cmd.v info Term.(const run $ file $ csv_dir $ metrics_out_arg)

(* --- weekly --- *)

let weekly_cmd =
  let weeks =
    Arg.(value & opt int 4 & info [ "weeks" ] ~docv:"N" ~doc:"Occasions to run.")
  in
  let start_day =
    Arg.(
      value & opt int 30
      & info [ "start-day" ] ~docv:"DAY" ~doc:"Day of year of the first occasion.")
  in
  let hours =
    Arg.(value & opt float 2.0 & info [ "hours" ] ~docv:"H" ~doc:"Hours per occasion.")
  in
  let out =
    Arg.(
      value & opt string "weekly-profile"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for CSVs and figures.")
  in
  let serve_metrics =
    let doc =
      "Serve the live monitoring endpoints on 127.0.0.1:$(docv) while the \
       occasions run: /metrics (Prometheus), /metrics.json, /series.json, \
       /alerts.json, /logs.json, /trace.json, /healthz and /readyz.  Use \
       port 0 for an ephemeral port (printed at startup)."
    in
    Arg.(value & opt (some int) None & info [ "serve-metrics" ] ~docv:"PORT" ~doc)
  in
  let hold =
    let doc =
      "With $(b,--serve-metrics): keep serving after the last occasion until \
       SIGINT/SIGTERM, then shut down cleanly."
    in
    Arg.(value & flag & info [ "hold" ] ~doc)
  in
  let alert_rules =
    let doc =
      "Alert rule, e.g. $(b,'site_drop_rate > 0.05 for 3'); repeatable.  \
       Replaces the default rule set.  Syntax: <series> >|< <threshold> \
       [for <occasions>]."
    in
    Arg.(value & opt_all string [] & info [ "alert" ] ~docv:"RULE" ~doc)
  in
  let fail_on_alert =
    let doc =
      "Exit nonzero when any alert rule is still firing after the last \
       occasion (for CI gates and cron wrappers).  Implies the alert \
       evaluator even without $(b,--serve-metrics)."
    in
    Arg.(value & flag & info [ "fail-on-alert" ] ~doc)
  in
  let domains =
    let doc =
      "Cores for the occasions.  The simulation of week w+1 overlaps the \
       analysis of week w: simulation gets half of $(docv) rounded up, \
       analysis the rest, and the two never use more than $(docv) \
       together.  With 1, the weeks run one after the other on this \
       domain.  The profile, its CSVs and figures, the flow store and \
       the printed lines are identical at any value; only wall-clock \
       changes.  Defaults to the machine's recommended domain count."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let flow_store =
    let doc =
      "Stream every occasion's flow records to sorted binary segment files \
       under $(docv) as the occasions complete, spilling to disk whenever \
       the in-memory buffer exceeds $(b,--spill-threshold) records.  Query \
       the store afterwards with the $(b,query) subcommand."
    in
    Arg.(value & opt (some string) None & info [ "flow-store" ] ~docv:"DIR" ~doc)
  in
  let spill_threshold =
    let doc =
      "With $(b,--flow-store): flow records to buffer in memory before \
       spilling a segment file (bounds peak heap for long runs)."
    in
    Arg.(value & opt int 200_000 & info [ "spill-threshold" ] ~docv:"N" ~doc)
  in
  let tsdb =
    let doc =
      "Persist every collected telemetry point to an append-only \
       time-series store under $(docv), one sealed segment per occasion.  \
       History survives restarts (alerts are re-armed from the stored \
       tail), /series.json serves it with $(b,?since=)/$(b,?until=), and \
       $(b,report --history) renders it offline."
    in
    Arg.(value & opt (some string) None & info [ "tsdb" ] ~docv:"DIR" ~doc)
  in
  let run seed weeks start_day hours out domains metrics_out
      serve_metrics hold alert_rules fail_on_alert flow_store spill_threshold
      tsdb =
    (* The paper's operational mode: Patchwork runs weekly and keeps a
       cumulative testbed-wide profile (the public dashboard's data). *)
    (match flow_store with
    | Some dir when Analysis.Flow_store.segments_in_dir dir <> [] ->
      Printf.eprintf
        "weekly: %s already holds flow-store segments; give --flow-store an \
         empty or new directory\n"
        dir;
      exit 1
    | _ -> ());
    let rules =
      match alert_rules with
      | [] -> Live.default_rules
      | rs ->
        List.map
          (fun r ->
            match Obs.Alerts.rule_of_string r with
            | Ok rule -> rule
            | Error msg -> failwith ("--alert: " ^ msg))
          rs
    in
    (* One bounded ring log shared across occasions so /logs.json can
       tail the whole service, not just the newest occasion. *)
    let service_log = Patchwork.Logging.create ~capacity:4096 () in
    let tsdb_store = Option.map (fun dir -> Obs.Tsdb.open_store ~dir ()) tsdb in
    let live =
      (* --tsdb without --serve-metrics still needs the occasion hook
         (and re-armed alerts): run the service on an ephemeral port
         without announcing it. *)
      match (serve_metrics, tsdb_store) with
      | None, None when not fail_on_alert -> None
      | port, _ ->
        let baseline_at = float_of_int start_day *. Netcore.Timebase.day in
        let l =
          Live.start ~rules ~baseline_at ?tsdb:tsdb_store
            ~port:(Option.value ~default:0 port)
            ~log:service_log ()
        in
        if port <> None then
          Printf.printf "serving metrics on http://127.0.0.1:%d\n%!"
            (Live.port l);
        Some l
    in
    let builder = Analysis.Profile.Builder.create ~log:service_log () in
    let store =
      Option.map
        (fun dir ->
          Analysis.Flow_store.Writer.create ~spill_records:spill_threshold
            ~dir ())
        flow_store
    in
    (* One simulated week: fresh engine/fabric/driver, one occasion.
       Independent across weeks, which is what lets the schedule run
       week w+1 while week w is still being absorbed. *)
    let run_week pool w =
      let day = start_day + (7 * w) in
      let start_time = float_of_int day *. Netcore.Timebase.day in
      let engine = Simcore.Engine.create ~start_time () in
      let fabric = Testbed.Fablib.create ~seed engine in
      let driver = Traffic.Driver.create ~pool fabric ~seed:(seed + (31 * w)) in
      let config =
        {
          Patchwork.Config.default with
          Patchwork.Config.samples_per_run = 4;
          max_frames_per_sample = 3000;
          pool_size = Parallel.Pool.size pool;
        }
      in
      let report =
        Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~pool
          ~log:service_log ~start_time
          ~duration:(hours *. Netcore.Timebase.hour) ()
      in
      let ok =
        List.length
          (List.filter
             (fun (s : Patchwork.Coordinator.site_report) ->
               match s.Patchwork.Coordinator.outcome with
               | Patchwork.Coordinator.Site_success
               | Patchwork.Coordinator.Site_degraded ->
                 true
               | _ -> false)
             report.Patchwork.Coordinator.sites)
      in
      Printf.printf "week of day %3d: %d/%d sites profiled, %d samples\n%!" day ok
        (List.length report.Patchwork.Coordinator.sites)
        (List.length (Patchwork.Coordinator.all_samples report));
      report
    in
    let domains =
      match domains with
      | Some n -> max 1 n
      | None -> Domain.recommended_domain_count ()
    in
    ignore
      (Patchwork.Pipeline.run_within ~domains ~n:weeks
         ~produce:run_week
         ~consume:(fun pool _ report ->
           Analysis.Profile.Builder.add_report ~pool ?flow_store:store builder
             report));
    let profile = Analysis.Profile.Builder.finish builder in
    Format.printf "%a" Analysis.Profile.pp_summary profile;
    let csvs = Analysis.Profile.write_csv_files profile ~dir:out in
    let figs = Analysis.Figures.write_profile_figures profile ~dir:out in
    Printf.printf "wrote %d CSVs and %d figures under %s\n"
      (List.length csvs) (List.length figs) out;
    (match (store, flow_store) with
    | Some w, Some dir ->
      let segs = Analysis.Flow_store.Writer.finish w in
      Printf.printf "flow store: %d segments, %d bytes under %s\n"
        (List.length segs)
        (Analysis.Flow_store.Writer.spilled_bytes w)
        dir
    | _ -> ());
    print_capture_summary ();
    write_metrics metrics_out;
    let actives =
      match live with
      | None -> []
      | Some l ->
        if hold then begin
          Printf.printf "holding (SIGINT/SIGTERM to exit)\n%!";
          Live.hold_until_signal ()
        end;
        let actives = Live.active_alerts l in
        Live.stop l;
        if serve_metrics <> None then Printf.printf "metrics server stopped\n%!";
        actives
    in
    (match tsdb_store with
    | Some store ->
      Printf.printf "tsdb: %d segments under %s\n%!"
        (List.length (Obs.Tsdb.segments store))
        (Obs.Tsdb.dir store)
    | None -> ());
    if fail_on_alert && actives <> [] then begin
      Printf.printf "active alerts at exit:\n";
      List.iter
        (fun ((r : Obs.Alerts.rule), labels, v) ->
          Printf.printf "  %s%s value=%g\n" r.Obs.Alerts.rule_name
            (match labels with
            | [] -> ""
            | ls ->
              "{"
              ^ String.concat ","
                  (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
              ^ "}")
            v)
        actives;
      exit 1
    end
  in
  let info =
    Cmd.info "weekly"
      ~doc:"Run the weekly profiling service and refresh the cumulative profile"
  in
  Cmd.v info
    Term.(
      const run $ seed_arg $ weeks $ start_day $ hours $ out $ domains
      $ metrics_out_arg $ serve_metrics $ hold $ alert_rules $ fail_on_alert
      $ flow_store $ spill_threshold $ tsdb)

(* --- query --- *)

let query_cmd =
  let store_dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE_DIR")
  in
  let since =
    let doc = "Keep flows last seen at or after $(docv) (simulated seconds)." in
    Arg.(value & opt (some float) None & info [ "since" ] ~docv:"T" ~doc)
  in
  let until =
    let doc = "Keep flows first seen at or before $(docv) (simulated seconds)." in
    Arg.(value & opt (some float) None & info [ "until" ] ~docv:"T" ~doc)
  in
  let site =
    let doc = "Keep only flows captured at $(docv)." in
    Arg.(value & opt (some string) None & info [ "site" ] ~docv:"SITE" ~doc)
  in
  let proto =
    let doc = "Keep only flows of this transport (tcp, udp, icmp, ...)." in
    Arg.(value & opt (some string) None & info [ "proto" ] ~docv:"PROTO" ~doc)
  in
  let top =
    let doc =
      "Report the $(docv) largest flows by bytes (0 returns every flow; \
       with a positive $(docv) the scan never materializes the full flow \
       table)."
    in
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"K" ~doc)
  in
  let dist =
    let doc = "Also print the log2 flow-size distribution." in
    Arg.(value & flag & info [ "dist" ] ~doc)
  in
  let keys =
    let doc =
      "Look up this exact flow key instead of scanning with predicates \
       (repeatable).  The drill-down for the loss ledger's exemplars: \
       paste a key from $(b,/lossmap.json) or $(b,doctor) to see how much \
       of the flow still made it into storage."
    in
    Arg.(value & opt_all string [] & info [ "key" ] ~docv:"KEY" ~doc)
  in
  let run store_dir since until site proto top dist keys metrics_out =
    (* A missing or corrupt store is the user's input, not a bug: one
       line on stderr and exit 1, like weekly --fail-on-alert. *)
    let fail msg =
      prerr_endline ("query: " ^ msg);
      exit 1
    in
    (let segs =
       try Analysis.Flow_store.segments_in_dir store_dir
       with Sys_error msg -> fail msg
     in
     if segs = [] then
       fail
         (store_dir
        ^ ": no .pwfs segments (write some with weekly --flow-store DIR)");
     if keys <> [] then
       match Analysis.Flow_store.lookup ~keys segs with
       | exception Analysis.Flow_store.Corrupt msg -> fail msg
       | found ->
         List.iter
           (fun (key, summary) ->
             match summary with
             | None -> Printf.printf "  %-48s (no record in the store)\n" key
             | Some (f : Analysis.Flows.summary) ->
               Printf.printf "  %-48s %14.0f B %10.0f frames  %7.0fs-%-7.0fs%s\n"
                 f.Analysis.Flows.flow_key f.Analysis.Flows.bytes
                 f.Analysis.Flows.frames f.Analysis.Flows.first_seen
                 f.Analysis.Flows.last_seen
                 (if f.Analysis.Flows.rst_seen then "  RST" else ""))
           found
     else
     let pred = Analysis.Flow_store.predicate ?since ?until ?site ?proto () in
     match
       if top > 0 then Analysis.Flow_store.query ~pred ~top segs
       else Analysis.Flow_store.query ~pred segs
     with
     | exception Analysis.Flow_store.Corrupt msg -> fail msg
     | res ->
       let st = res.Analysis.Flow_store.stats in
       Printf.printf
         "store: %d segments; scanned %d records (%d matched) in %.3fs (%.0f \
          records/s)\n"
         st.Analysis.Flow_store.segments_scanned
         st.Analysis.Flow_store.records_scanned
         st.Analysis.Flow_store.records_matched st.Analysis.Flow_store.wall_s
         (if st.Analysis.Flow_store.wall_s > 0.0 then
            float_of_int st.Analysis.Flow_store.records_scanned
            /. st.Analysis.Flow_store.wall_s
          else 0.0);
       Printf.printf "flows: %d distinct, %.0f weighted frames, %.0f weighted \
                      bytes\n"
         st.Analysis.Flow_store.distinct_flows
         st.Analysis.Flow_store.total_frames st.Analysis.Flow_store.total_bytes;
       let shown = res.Analysis.Flow_store.flows in
       if shown <> [] then begin
         Printf.printf "top %d flows by bytes:\n" (List.length shown);
         List.iter
           (fun (f : Analysis.Flows.summary) ->
             Printf.printf "  %-48s %14.0f B %10.0f frames  %7.0fs-%-7.0fs%s\n"
               f.Analysis.Flows.flow_key f.Analysis.Flows.bytes
               f.Analysis.Flows.frames f.Analysis.Flows.first_seen
               f.Analysis.Flows.last_seen
               (if f.Analysis.Flows.rst_seen then "  RST" else ""))
           shown
       end;
       if dist then begin
         Printf.printf "flow size distribution (log2 bytes):\n";
         List.iter
           (fun (k, c) -> Printf.printf "  [2^%-2d, 2^%-2d) %8d\n" k (k + 1) c)
           (Netcore.Histogram.Log2.buckets res.Analysis.Flow_store.size_hist)
       end);
    write_metrics metrics_out
  in
  let info =
    Cmd.info "query"
      ~doc:
        "Scan a flow store (segments written by weekly --flow-store) with \
         time/site/proto predicates, top-k and size distributions — without \
         rehydrating whole occasions"
  in
  Cmd.v info
    Term.(
      const run $ store_dir $ since $ until $ site $ proto $ top $ dist $ keys
      $ metrics_out_arg)

(* --- release --- *)

let release_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"IN.pcap") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT.pcap") in
  let key =
    Arg.(
      value & opt int 0x5EED
      & info [ "key" ] ~docv:"KEY"
          ~doc:"Anonymization key; the same key maps addresses consistently \
                across releases.")
  in
  let snaplen =
    Arg.(
      value & opt int 200
      & info [ "snaplen" ] ~docv:"BYTES" ~doc:"Truncate payloads to this length.")
  in
  let run input output key snaplen =
    (* Prepare a capture for public release: prefix-preserving address
       anonymization plus payload truncation, as the paper proposes for
       periodically publishing testbed traces. *)
    let buf = Analysis.Digest.read_file input in
    let anon = Hostmodel.Anonymize.create ~key in
    let w = Packet.Pcap.Writer.create ~snaplen () in
    let rewritten = ref 0 and passed = ref 0 in
    (* The digest's walk: each record dissected where it lies. *)
    Packet.Pcapng.fold_any buf ~init:() ~f:(fun () ~ts ~orig_len ~off ~cap_len ->
        let d = Dissect.Dissector.dissect buf ~off ~cap_len ~orig_len in
        match Packet.Frame.validate d.Dissect.Dissector.headers with
        | Ok () when d.Dissect.Dissector.headers <> [] ->
          (* Re-encode the anonymized headers, only as far as the
             snap length keeps. *)
          let frame =
            Packet.Frame.make d.Dissect.Dissector.headers
              ~payload_len:d.Dissect.Dissector.payload_len
          in
          let frame = Hostmodel.Anonymize.frame anon frame in
          incr rewritten;
          Packet.Pcap.Writer.add w ~ts ~orig_len (Packet.Codec.encode ~limit:snaplen frame)
        | Ok () | Error _ ->
          (* Frames we cannot re-encode are blanked rather than leaked. *)
          incr passed;
          Packet.Pcap.Writer.add w ~ts ~orig_len (Bytes.make (min snaplen cap_len) '\x00'));
    Packet.Pcap.Writer.to_file w output;
    Printf.printf "released %d packets to %s (%d anonymized, %d blanked)\n"
      (!rewritten + !passed) output !rewritten !passed
  in
  let info =
    Cmd.info "release"
      ~doc:"Anonymize and truncate a capture for public release"
  in
  Cmd.v info Term.(const run $ input $ output $ key $ snaplen)

(* --- report --- *)

module J = Obs.Export.Json

let rec print_span ~indent j =
  let str k = Option.bind (J.member k j) J.to_str in
  let num k = Option.bind (J.member k j) J.to_float in
  let name = Option.value ~default:"?" (str "name") in
  let wall = Option.value ~default:0.0 (num "wall_s") in
  let minor = Option.value ~default:0.0 (num "minor_words") in
  let notes =
    match J.member "notes" j with
    | Some (J.Obj kvs) ->
      String.concat ""
        (List.map
           (fun (k, v) ->
             Printf.sprintf "  %s=%s" k (Option.value ~default:"?" (J.to_str v)))
           kvs)
    | _ -> ""
  in
  let label = String.make indent ' ' ^ name in
  Printf.printf "  %-34s %10.3f ms %14.0f minor words%s\n" label (wall *. 1e3)
    minor notes;
  match J.member "children" j with
  | Some (J.Arr children) -> List.iter (print_span ~indent:(indent + 2)) children
  | _ -> ()

(* The loss table: the ledger's per-site, per-cause attribution from the
   snapshot's [ledger_*] counters, rendered as offered -> each cause ->
   stored so the whole budget is visible at once, then the same
   waterfall summed across sites. *)
let print_loss_waterfall metrics =
  let member_str k m = Option.bind (J.member k m) J.to_str in
  let label k m =
    Option.bind (J.member "labels" m) (J.member k) |> Fun.flip Option.bind J.to_str
  in
  let value m = Option.bind (J.member "value" m) J.to_float in
  let new_row () = (ref 0.0, ref 0.0, Hashtbl.create 8) in
  let add_cause causes cause v =
    Hashtbl.replace causes cause
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt causes cause))
  in
  (* site -> (offered, stored, (cause -> frames)) *)
  let sites = Hashtbl.create 8 in
  let site_row site =
    match Hashtbl.find_opt sites site with
    | Some r -> r
    | None ->
      let r = new_row () in
      Hashtbl.add sites site r;
      r
  in
  let violations = ref 0.0 in
  List.iter
    (fun m ->
      match (member_str "name" m, label "site" m, value m) with
      | Some "ledger_conservation_violations_total", _, Some v ->
        violations := !violations +. v
      | Some "ledger_offered_frames_total", Some site, Some v ->
        let offered, _, _ = site_row site in
        offered := !offered +. v
      | Some "ledger_stored_frames_total", Some site, Some v ->
        let _, stored, _ = site_row site in
        stored := !stored +. v
      | Some "ledger_attributed_frames_total", Some site, Some v -> (
        match label "cause" m with
        | None -> ()
        | Some cause ->
          let _, _, causes = site_row site in
          add_cause causes cause v)
      | _ -> ())
    metrics;
  if Hashtbl.length sites = 0 then
    print_endline "no loss ledger in snapshot (analyze-only run)"
  else begin
    print_endline "loss waterfall (attribution ledger):";
    let print_block site (offered, stored, causes) =
      let pct v = if !offered > 0.0 then 100.0 *. v /. !offered else 0.0 in
      Printf.printf "  %-8s offered %14.0f frames\n" site !offered;
      let cause_rows =
        List.sort (fun (_, a) (_, b) -> compare b a)
          (Hashtbl.fold (fun c v acc -> (c, v) :: acc) causes [])
      in
      List.iter
        (fun (cause, v) ->
          if v > 0.0 then
            Printf.printf "  %-8s   - %-20s %10.0f  %6.2f%%\n" "" cause v (pct v))
        cause_rows;
      Printf.printf "  %-8s   = stored %18.0f  %6.2f%%\n" "" !stored
        (pct !stored)
    in
    let rows =
      List.sort compare (Hashtbl.fold (fun site r acc -> (site, r) :: acc) sites [])
    in
    let ((t_offered, t_stored, t_causes) as total) = new_row () in
    List.iter
      (fun (site, ((offered, stored, causes) as r)) ->
        print_block site r;
        t_offered := !t_offered +. !offered;
        t_stored := !t_stored +. !stored;
        Hashtbl.iter (add_cause t_causes) causes)
      rows;
    print_block "TOTAL" total;
    if !violations > 0.0 then
      Printf.printf
        "  WARNING: %.0f conservation violation%s recorded (run doctor)\n"
        !violations
        (if !violations = 1.0 then "" else "s")
  end

let metrics_value metrics name =
  List.fold_left
    (fun acc m ->
      match
        (Option.bind (J.member "name" m) J.to_str,
         Option.bind (J.member "value" m) J.to_float)
      with
      | Some n, Some v when n = name -> acc +. v
      | _ -> acc)
    0.0 metrics

(* Fast-path counters: arrival events the driver handed to the engine
   as pre-sorted batches, and how the capture abstracted its records.
   Silent when the run never exercised them. *)
let print_fastpath_lines metrics =
  let value = metrics_value metrics in
  let batched = value "engine_events_batched_total" in
  if batched > 0.0 then
    Printf.printf "engine events batched: %.0f\n" batched;
  print_capture_classes
    ~classes:(value "capture_classes_total")
    ~records:(value "capture_records_total")

let render_report doc =
  (match J.member "spans" doc with
  | Some (J.Arr (_ :: _ as spans)) ->
    print_endline "spans:";
    List.iter (print_span ~indent:0) spans
  | _ -> print_endline "no spans in snapshot");
  print_newline ();
  match J.member "metrics" doc with
  | Some (J.Arr metrics) ->
    print_loss_waterfall metrics;
    print_fastpath_lines metrics
  | _ -> print_endline "no metrics in snapshot"

let report_cmd =
  let infile =
    let doc =
      "Render a JSON metrics snapshot: the file $(b,--metrics-out) wrote."
    in
    Arg.(value & opt (some file) None & info [ "in" ] ~docv:"FILE" ~doc)
  in
  let live_port =
    let doc =
      "Scrape a running $(b,weekly --serve-metrics) service on \
       127.0.0.1:$(docv) and render its rolling series as sparklines \
       plus the active alerts, instead of a span-tree report."
    in
    Arg.(value & opt (some int) None & info [ "live" ] ~docv:"PORT" ~doc)
  in
  let history =
    let doc =
      "Render trends from a $(b,weekly --tsdb) store directory without \
       needing a running service."
    in
    Arg.(value & opt (some string) None & info [ "history" ] ~docv:"DIR" ~doc)
  in
  let hist_since =
    let doc = "With $(b,--history): keep points at or after $(docv)." in
    Arg.(value & opt (some float) None & info [ "since" ] ~docv:"T" ~doc)
  in
  let hist_until =
    let doc = "With $(b,--history): keep points at or before $(docv)." in
    Arg.(value & opt (some float) None & info [ "until" ] ~docv:"T" ~doc)
  in
  let hist_name =
    let doc = "With $(b,--history): render only the named series." in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"SERIES" ~doc)
  in
  let run infile live_port history hist_since hist_until hist_name =
    (* No source, an unreachable service or a corrupt store is the
       user's input, not a bug: one line on stderr and exit 1, as query
       does. *)
    let fail msg =
      prerr_endline ("report: " ^ msg);
      exit 1
    in
    match (live_port, history, infile) with
    | Some port, _, _ -> (
      try Live.render_live ~port with Failure msg -> fail msg)
    | None, Some dir, _ -> (
      try
        Live.render_history ?since:hist_since ?until:hist_until
          ?name:hist_name ~dir ()
      with Obs.Tsdb.Corrupt msg -> fail msg)
    | None, None, Some path -> (
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match J.parse text with
      | Ok doc -> render_report doc
      | Error msg -> fail (path ^ ": " ^ msg))
    | None, None, None ->
      fail
        "nothing to render: give --in FILE (a --metrics-out snapshot), \
         --live PORT or --history DIR"
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Render the per-occasion span tree and the loss ledger's waterfall \
         from a metrics snapshot ($(b,--in)), scrape a live service with \
         $(b,--live), or render stored telemetry trends with $(b,--history)"
  in
  Cmd.v info
    Term.(
      const run $ infile $ live_port $ history $ hist_since $ hist_until
      $ hist_name)

(* --- doctor --- *)

let doctor_cmd =
  let live =
    let doc =
      "Audit a running $(b,weekly --serve-metrics) service on \
       127.0.0.1:$(docv): liveness/readiness, loss-ledger conservation \
       recomputed from $(b,/lossmap.json), the series endpoint and \
       active alerts."
    in
    Arg.(value & opt (some int) None & info [ "live" ] ~docv:"PORT" ~doc)
  in
  let history =
    let doc =
      "Audit an on-disk $(b,weekly --tsdb) store under $(docv): validate \
       every segment byte-for-byte and recompute ledger conservation \
       from the persisted series."
    in
    Arg.(value & opt (some string) None & info [ "history" ] ~docv:"DIR" ~doc)
  in
  let flow_store =
    let doc =
      "Also validate the flow-store segments under $(docv) (written by \
       $(b,weekly --flow-store))."
    in
    Arg.(value & opt (some string) None & info [ "flow-store" ] ~docv:"DIR" ~doc)
  in
  let run live history flow_store =
    exit (Doctor.run ?live ?history ?flow_store ())
  in
  let info =
    Cmd.info "doctor"
      ~doc:
        "Run the platform's health checks — ledger conservation, segment \
         validation, alerts — against \
         a live service ($(b,--live)) and/or stored history \
         ($(b,--history)); PASS/WARN/FAIL per check, nonzero exit on any \
         FAIL"
  in
  Cmd.v info Term.(const run $ live $ history $ flow_store)

(* --- capacity --- *)

let capacity_cmd =
  let frame =
    Arg.(value & opt int 1514 & info [ "frame" ] ~docv:"BYTES")
  in
  let run frame =
    Printf.printf "capture-path capacity for %dB frames:\n" frame;
    Printf.printf "  tcpdump: %.2f Gbps\n"
      (Hostmodel.Kernel_path.lossless_bound ~frame_size:frame /. 1e9);
    List.iter
      (fun (cores, trunc) ->
        let config =
          { Hostmodel.Dpdk_path.default_config with
            Hostmodel.Dpdk_path.cores; truncation = trunc }
        in
        Printf.printf "  DPDK %2d cores, %3dB truncation: %.2f Gbps\n" cores trunc
          (Hostmodel.Dpdk_path.capacity_rate config ~frame_size:frame /. 1e9))
      [ (3, 64); (5, 200); (10, 200); (15, 64) ]
  in
  let info = Cmd.info "capacity" ~doc:"Query the capture-path capacity models" in
  Cmd.v info Term.(const run $ frame)

let () =
  let doc = "Patchwork: traffic capture and analysis for a federated testbed" in
  let info = Cmd.info "patchwork" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ profile_cmd; weekly_cmd; dissect_cmd; generate_cmd; analyze_cmd;
            query_cmd; report_cmd; release_cmd; capacity_cmd; doctor_cmd ]))
