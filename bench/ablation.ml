(* Ablations of Patchwork's design choices (DESIGN.md):
   - the busiest-bias port-cycling heuristic vs the alternatives;
   - the capture methods under load;
   - iterative back-off vs all-or-nothing acquisition. *)

module Config = Patchwork.Config
module Coordinator = Patchwork.Coordinator
module Allocator = Testbed.Allocator

let cycling () =
  Paper.section "Ablation: port-selection heuristics";
  Paper.row "%-24s %14s %14s %12s" "policy" "active samples" "ports covered"
    "frames seen";
  let policies =
    [
      ("busiest-bias 1/4", Config.Busiest_bias 4);
      ("all ports round-robin", Config.All_ports_round_robin);
      ("uplinks only", Config.Uplinks_only);
    ]
  in
  List.iter
    (fun (name, policy) ->
      let start_time = 130.0 *. Netcore.Timebase.day in
      let config =
        {
          Config.default with
          Config.port_selection = policy;
          samples_per_run = 2;
          max_frames_per_sample = 100;
        }
      in
      let report =
        Paper.run_profile_occasion ~config ~pressure:false ~occasion_seed:77
          ~start_time ~duration:(3.0 *. Netcore.Timebase.hour) ()
      in
      let samples = Coordinator.all_samples report in
      let active =
        List.length
          (List.filter
             (fun (s : Patchwork.Capture.sample) ->
               s.Patchwork.Capture.stats.Patchwork.Capture.loss
                 .Patchwork.Capture.b_offered_frames > 0.0)
             samples)
      in
      let ports =
        List.sort_uniq compare
          (List.map
             (fun (s : Patchwork.Capture.sample) ->
               (s.Patchwork.Capture.sample_site, s.Patchwork.Capture.sample_port))
             samples)
      in
      let frames =
        List.fold_left
          (fun acc (s : Patchwork.Capture.sample) ->
            acc
            +. s.Patchwork.Capture.stats.Patchwork.Capture.loss
                 .Patchwork.Capture.b_offered_frames)
          0.0 samples
      in
      Paper.row "%-24s %6d / %-6d %14d %12.2e" name active (List.length samples)
        (List.length ports) frames)
    policies;
  Paper.row
    "(busiest-bias should see the most traffic while still covering many ports)"

let capture_methods () =
  Paper.section "Ablation: capture methods on a line-rate port";
  (* A port carrying 90 Gbps of 1514B frames, mirrored cleanly. *)
  let offered_pps = Netcore.Units.pps_of_bps 90e9 ~frame_bytes:1514 in
  Paper.row "%-22s %14s %12s" "method" "captured pps" "kept (%)";
  let methods =
    [
      ("tcpdump", Config.Tcpdump);
      ("DPDK 3 cores", Config.Dpdk { cores = 3 });
      ("DPDK 5 cores", Config.Dpdk { cores = 5 });
      ( "FPGA 1-in-8 + 3 cores",
        Config.Fpga_dpdk { cores = 3; sample_1_in = 8 } );
    ]
  in
  List.iter
    (fun (name, m) ->
      let capacity =
        Patchwork.Capture.method_capacity_pps
          { Config.default with Config.capture_method = m }
      in
      let captured = Float.min offered_pps capacity in
      Paper.row "%-22s %14.2e %11.1f%%" name captured
        (100.0 *. captured /. offered_pps))
    methods;
  Paper.row
    "(the FPGA keeps every N-th frame at line rate, so the host sees a clean systematic sample)"

let backoff () =
  Paper.section "Ablation: iterative back-off vs all-or-nothing acquisition";
  let trials = 200 in
  let want = 2 in
  let run_policy with_backoff =
    let succeeded = ref 0 and got_any = ref 0 in
    for i = 1 to trials do
      let engine = Simcore.Engine.create () in
      let fabric = Testbed.Fablib.create ~seed:Paper.seed engine in
      Paper.apply_external_pressure fabric
        ~at:(float_of_int (i * 3) *. Netcore.Timebase.day)
        ~occasion_seed:i;
      let allocator = Testbed.Fablib.allocator fabric in
      let model = Testbed.Fablib.model fabric in
      let site =
        (List.nth (Testbed.Info_model.profilable_sites model)
           (i mod List.length (Testbed.Info_model.profilable_sites model)))
          .Testbed.Info_model.name
      in
      if with_backoff then begin
        let log = Patchwork.Logging.create () in
        match
          Patchwork.Backoff.acquire allocator ~log ~time:0.0 ~site
            ~desired_instances:want
        with
        | Patchwork.Backoff.Acquired { instances; _ } ->
          incr got_any;
          if instances = want then incr succeeded
        | Patchwork.Backoff.No_resources | Patchwork.Backoff.Backend_failed _ -> ()
      end
      else begin
        let request =
          {
            Allocator.site;
            vms = List.init want (fun _ -> Patchwork.Backoff.instance_vm);
          }
        in
        match Allocator.create_slice allocator request with
        | Ok _ ->
          incr got_any;
          incr succeeded
        | Error _ -> ()
      end
    done;
    (!succeeded, !got_any)
  in
  let full_b, any_b = run_policy true in
  let full_n, any_n = run_policy false in
  Paper.row "%-20s %18s %22s" "policy" "full acquisition" "profiled at all";
  Paper.row "%-20s %15d/%d %19d/%d" "with back-off" full_b trials any_b trials;
  Paper.row "%-20s %15d/%d %19d/%d" "all-or-nothing" full_n trials any_n trials;
  Paper.row
    "(back-off trades sample quality for availability: far more runs profile something)"

let autoscaling () =
  Paper.section "Future work: static allocation vs the runtime autoscaler";
  (* One site over 8 simulated hours with a mid-run resource crunch.
     Static Patchwork holds 2 instances throughout; the autoscaler grows
     while the site is free and backs off (the "nice" factor) when other
     researchers take the NICs. *)
  let run_mode autoscaled =
    let engine = Simcore.Engine.create () in
    let fabric = Testbed.Fablib.create ~seed:Paper.seed engine in
    let driver = Traffic.Driver.create fabric ~seed:81 in
    (* Use the best-equipped site so there is headroom to scale into. *)
    let site =
      (List.fold_left
         (fun best s ->
           if
             Testbed.Info_model.dedicated_nics s
             > Testbed.Info_model.dedicated_nics best
           then s
           else best)
         (List.hd (Testbed.Info_model.profilable_sites (Testbed.Fablib.model fabric)))
         (Testbed.Info_model.profilable_sites (Testbed.Fablib.model fabric)))
        .Testbed.Info_model.name
    in
    let config =
      {
        Patchwork.Config.default with
        Patchwork.Config.samples_per_run = 3;
        max_frames_per_sample = 5;
        instance_crash_prob = 0.0;
      }
    in
    let until = 8.0 *. 3600.0 in
    Testbed.Fablib.start_telemetry ~until fabric;
    Traffic.Driver.start driver ~until;
    (* The crunch arrives halfway through. *)
    Simcore.Engine.schedule engine ~delay:(4.0 *. 3600.0) (fun _ ->
        Testbed.Allocator.set_external_utilization
          (Testbed.Fablib.allocator fabric) ~site 1.0);
    let log = Patchwork.Logging.create () in
    let scaler =
      Patchwork.Autoscaler.create ~fabric
        ~resolver:(Traffic.Driver.resolver driver) ~config ~log
        ~rng:(Netcore.Rng.create 7) ~site
        ~policy:
          (if autoscaled then
             { Patchwork.Autoscaler.default_policy with
               Patchwork.Autoscaler.check_interval = 600.0 }
           else
             { Patchwork.Autoscaler.check_interval = 600.0;
               min_instances = 2; max_instances = 2; nice_free_nics = -1 })
    in
    Patchwork.Autoscaler.start scaler ~until;
    Simcore.Engine.run ~until engine;
    let samples = List.length (Patchwork.Autoscaler.samples scaler) in
    let slice_hours = Patchwork.Autoscaler.slice_seconds scaler /. 3600.0 in
    Patchwork.Autoscaler.shutdown scaler;
    (samples, slice_hours, List.length (Patchwork.Autoscaler.events scaler))
  in
  let s_samples, s_hours, _ = run_mode false in
  let a_samples, a_hours, a_events = run_mode true in
  Paper.row "%-12s %10s %14s %10s" "mode" "samples" "slice-hours" "decisions";
  Paper.row "%-12s %10d %14.1f %10s" "static x2" s_samples s_hours "-";
  Paper.row "%-12s %10d %14.1f %10d" "autoscaled" a_samples a_hours a_events;
  Paper.row
    "(the scaler converts idle NICs into extra coverage and yields them back during the crunch)"

let run () =
  cycling ();
  capture_methods ();
  backoff ();
  autoscaling ()
