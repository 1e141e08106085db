(* Testbed-wide profiling (all-experiment mode).

   Runs one weekly-style profiling occasion across every profilable
   site of the federation, then pushes the captures through the full
   offline pipeline (Digest -> Index -> Analyze -> Process, a flow store
   serving as the index) and emits the CSV files that the paper's graphs
   are drawn from.  The flow store lives in a temporary directory and is
   removed before exit; the CSVs stay.

   Run with: dune exec examples/testbed_profile.exe *)

let () =
  let start_time = 120.0 *. Netcore.Timebase.day in
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed:7 engine in
  let driver = Traffic.Driver.create fabric ~seed:7 in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 4;
      max_frames_per_sample = 4000;
    }
  in
  print_endline "running an all-experiment profiling occasion (2 simulated hours)...";
  let report =
    Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~start_time
      ~duration:(2.0 *. Netcore.Timebase.hour) ()
  in
  (* Site outcomes (the Fig. 10 view of a single occasion). *)
  List.iter
    (fun (s : Patchwork.Coordinator.site_report) ->
      Printf.printf "  %-6s %-10s %3d samples, %d cycles\n"
        s.Patchwork.Coordinator.report_site
        (match s.Patchwork.Coordinator.outcome with
        | Patchwork.Coordinator.Site_success -> "success"
        | Patchwork.Coordinator.Site_degraded -> "degraded"
        | Patchwork.Coordinator.Site_failed _ -> "FAILED"
        | Patchwork.Coordinator.Site_incomplete _ -> "INCOMPLETE")
        (List.length s.Patchwork.Coordinator.site_samples)
        s.Patchwork.Coordinator.cycles)
    report.Patchwork.Coordinator.sites;
  (* Digest and absorb the occasion, streaming each sample's flows into
     a flow store: the index later analyses query instead of rescanning
     every capture. *)
  let dir = Filename.temp_file "patchwork_profile" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let store_dir = Filename.concat dir "flows" in
  let store = Analysis.Flow_store.Writer.create ~dir:store_dir () in
  let builder = Analysis.Profile.Builder.create () in
  Analysis.Profile.Builder.add_report ~flow_store:store builder report;
  let segs = Analysis.Flow_store.Writer.finish store in
  let top = Analysis.Flow_store.query ~top:3 segs in
  Printf.printf "flow store: %d segments, %d bytes, %d distinct flows\n"
    (List.length segs)
    (Analysis.Flow_store.Writer.spilled_bytes store)
    top.Analysis.Flow_store.stats.Analysis.Flow_store.distinct_flows;
  List.iter
    (fun (f : Analysis.Flows.summary) ->
      Printf.printf "  %-60s %12.0f bytes\n" f.Analysis.Flows.flow_key
        f.Analysis.Flows.bytes)
    top.Analysis.Flow_store.flows;
  List.iter Sys.remove segs;
  Sys.rmdir store_dir;
  (* Analyze. *)
  let profile = Analysis.Profile.Builder.finish builder in
  Format.printf "%a" Analysis.Profile.pp_summary profile;
  let csv_dir = Filename.concat dir "csv" in
  let files = Analysis.Profile.write_csv_files profile ~dir:csv_dir in
  Printf.printf "CSV reports under %s:\n" csv_dir;
  List.iter (fun f -> Printf.printf "  %s\n" f) files
