module Fablib = Testbed.Fablib
module Info_model = Testbed.Info_model
module Allocator = Testbed.Allocator

type site_outcome =
  | Site_success
  | Site_degraded
  | Site_failed of string
  | Site_incomplete of string

type site_report = {
  report_site : string;
  outcome : site_outcome;
  instances_requested : int;
  instances_acquired : int;
  site_samples : Capture.sample list;
  cycles : int;
  storage_used : float;
}

type occasion_report = {
  occasion_start : float;
  occasion_duration : float;
  sites : site_report list;
  log : Logging.t;
}

(* Occasion-level observability (the Fig.-10 success/failure series). *)
let obs_occasions =
  Obs.Registry.counter Obs.Registry.default "occasions_total"
    ~help:"Profiling occasions run"

(* Completion hooks: the live exposition stack (series collection, alert
   evaluation) registers here so every occasion feeds it regardless of
   which entry point ran the occasion.  The counter doubles as the
   /readyz signal — the service is ready once one occasion completed. *)
let completed = Atomic.make 0

type hook_handle = int

let hooks : (hook_handle * (occasion_report -> unit)) list ref = ref []
let hooks_lock = Mutex.create ()
let next_hook_id = ref 0

let on_occasion_complete f =
  Mutex.lock hooks_lock;
  incr next_hook_id;
  let id = !next_hook_id in
  (* Appending keeps the list in registration order, so run_hooks (per
     occasion) iterates it directly instead of List.rev-ing every time;
     registration is rare, occasions are not. *)
  hooks := !hooks @ [ (id, f) ];
  Mutex.unlock hooks_lock;
  id

let remove_hook id =
  Mutex.lock hooks_lock;
  hooks := List.filter (fun (i, _) -> i <> id) !hooks;
  Mutex.unlock hooks_lock

let ready () = Atomic.get completed > 0

let run_hooks report =
  Mutex.lock hooks_lock;
  let fs = !hooks in
  Mutex.unlock hooks_lock;
  List.iter
    (fun (_, f) ->
      try f report
      with e ->
        Logging.log report.log ~time:report.occasion_start
          ~level:Logging.Warning ~component:"coordinator"
          ("occasion hook failed: " ^ Printexc.to_string e))
    fs

let outcome_label = function
  | Site_success -> "success"
  | Site_degraded -> "degraded"
  | Site_failed _ -> "failed"
  | Site_incomplete _ -> "incomplete"

let obs_site_outcome outcome =
  Obs.Registry.counter Obs.Registry.default "occasion_sites_total"
    ~help:"Per-site occasion outcomes (Fig. 10)"
    ~labels:[ ("outcome", outcome_label outcome) ]

(* Patchwork's own NIC occupies switch ports; it mirrors other ports
   onto them.  We reserve the highest-numbered downlinks for Patchwork's
   NICs (one port of the dual-port NIC receives mirrored traffic). *)
let plan_ports fabric ~site ~instances =
  let downlinks = Fablib.downlink_ports fabric ~site in
  let n = List.length downlinks in
  let nic_ports =
    List.filteri (fun i _ -> i >= n - instances) downlinks
  in
  (* Membership through a hash set: the list-based scan was quadratic in
     the port count, which large sites pay on every occasion. *)
  let nic_set = Hashtbl.create (List.length nic_ports) in
  List.iter (fun p -> Hashtbl.replace nic_set p ()) nic_ports;
  let uplinks = Fablib.uplink_ports fabric ~site in
  let candidates =
    uplinks @ List.filter (fun p -> not (Hashtbl.mem nic_set p)) downlinks
  in
  (nic_ports, candidates)

type site_run = {
  sr_site : string;
  sr_requested : int;
  sr_acquired : int;
  sr_degraded : bool;
  sr_slice : Allocator.slice option;
  sr_instances : Instance.t list;
  sr_failure : string option;
}

let setup_site ~fabric ~driver ~config ~log ~rng ~max_instances ~site
    ~only_ports =
  let engine = Fablib.engine fabric in
  let now = Simcore.Engine.now engine in
  (* Patchwork asks for its standard complement and lets back-off trim
     it; a trimmed run is reported as degraded (Fig. 10). *)
  let desired = max_instances in
  match
    Backoff.acquire (Fablib.allocator fabric) ~log ~time:now ~site
      ~desired_instances:desired
  with
  | Backoff.No_resources ->
    {
      sr_site = site;
      sr_requested = desired;
      sr_acquired = 0;
      sr_degraded = false;
      sr_slice = None;
      sr_instances = [];
      sr_failure = Some "no resources";
    }
  | Backoff.Backend_failed msg ->
    {
      sr_site = site;
      sr_requested = desired;
      sr_acquired = 0;
      sr_degraded = false;
      sr_slice = None;
      sr_instances = [];
      sr_failure = Some ("backend: " ^ msg);
    }
  | Backoff.Acquired { slice; instances; degraded } ->
    let nic_ports, candidates = plan_ports fabric ~site ~instances in
    let candidates =
      match only_ports with
      | None -> candidates
      | Some ports ->
        let allowed = Hashtbl.create (List.length ports) in
        List.iter (fun p -> Hashtbl.replace allowed p ()) ports;
        List.filter (Hashtbl.mem allowed) candidates
    in
    let storage_bytes =
      float_of_int Backoff.instance_vm.Allocator.storage_gb *. 1e9
    in
    let insts =
      List.mapi
        (fun i nic_port ->
          Instance.create ~fabric ~resolver:(Traffic.Driver.resolver driver)
            ~config ~log ~rng:(Netcore.Rng.split rng) ~site ~instance_id:i
            ~nic_port ~candidates ~storage_bytes)
        nic_ports
    in
    {
      sr_site = site;
      sr_requested = desired;
      sr_acquired = instances;
      sr_degraded = degraded;
      sr_slice = Some slice;
      sr_instances = insts;
      sr_failure = None;
    }

let gather_site run =
  let samples =
    List.concat_map Instance.samples run.sr_instances
  in
  let cycles =
    List.fold_left (fun acc i -> acc + Instance.cycles_completed i) 0 run.sr_instances
  in
  let storage_used =
    List.fold_left (fun acc i -> acc +. Instance.storage_used i) 0.0 run.sr_instances
  in
  let crashed =
    List.filter_map
      (fun i ->
        match Instance.status i with
        | Instance.Crashed msg -> Some msg
        | Instance.Running | Instance.Finished -> None)
      run.sr_instances
  in
  let outcome =
    match (run.sr_failure, crashed) with
    | Some msg, _ -> Site_failed msg
    | None, msg :: _ -> Site_incomplete msg
    | None, [] -> if run.sr_degraded then Site_degraded else Site_success
  in
  {
    report_site = run.sr_site;
    outcome;
    instances_requested = run.sr_requested;
    instances_acquired = run.sr_acquired;
    site_samples = samples;
    cycles;
    storage_used;
  }

let run_occasion ~fabric ~driver ~config ?pool ?log ?(max_instances = 2)
    ~start_time ~duration () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Coordinator.run_occasion: " ^ msg));
  let engine = Fablib.engine fabric in
  if Simcore.Engine.now engine > start_time then
    invalid_arg "Coordinator.run_occasion: engine already past start_time";
  let log = match log with Some l -> l | None -> Logging.create () in
  let rng = Netcore.Rng.split (Fablib.rng fabric) in
  let until = start_time +. duration in
  (* The loss-attribution occasion boundary: everything the capture
     path records until the close below reconciles against this
     occasion (seeding exemplar priorities from start_time keeps them
     independent of pool size and interleaving). *)
  if Obs.Ledger.enabled () then
    Obs.Ledger.begin_occasion Obs.Ledger.default ~at:start_time;
  (* The whole occasion is one span; each workflow phase of §6.2 is a
     child span, so `patchwork_cli report` can attribute wall time (and
     allocation) per phase. *)
  let tracer = Obs.Span.default in
  Obs.Span.with_span tracer "occasion" @@ fun occ ->
  Obs.Span.annotate occ "start_time" (Printf.sprintf "%.0f" start_time);
  Obs.Span.annotate occ "duration_s" (Printf.sprintf "%.0f" duration);
  (* Phase 0: the substrate — telemetry polling and the traffic the
     researchers are generating. *)
  Obs.Span.with_span tracer "occasion.substrate" (fun _ ->
      Fablib.start_telemetry ~until fabric;
      Traffic.Driver.start driver ~until;
      (* Give telemetry a short warm-up so busiest-port ranking has
         data: run the engine to the start time plus two polls. *)
      Simcore.Engine.run ~until:(start_time +. 601.0) engine);
  (* Phase 1: setup at each target site. *)
  let targets =
    match config.Config.mode with
    | Config.All_experiments ->
      List.map
        (fun (s : Info_model.site) -> (s.Info_model.name, None))
        (Info_model.profilable_sites (Fablib.model fabric))
    | Config.Single_experiment sites ->
      List.map (fun (site, ports) -> (site, Some ports)) sites
  in
  let runs =
    Obs.Span.with_span tracer "occasion.setup" (fun sp ->
        Obs.Span.annotate sp "sites" (string_of_int (List.length targets));
        List.map
          (fun (site, only_ports) ->
            setup_site ~fabric ~driver ~config ~log ~rng ~max_instances ~site
              ~only_ports)
          targets)
  in
  (* Phase 2: sampling. *)
  Obs.Span.with_span tracer "occasion.sampling" (fun _ ->
      List.iter
        (fun run -> List.iter (fun i -> Instance.start i ~until) run.sr_instances)
        runs;
      Simcore.Engine.run ~until engine);
  (* Phase 3: gathering — collect artifacts, yield resources back.
     Per-site gathering only reads instance state (the engine stopped at
     [until]), so it fans out across the pool; [Parallel.Pool.map]
     preserves site order. *)
  let reports =
    Obs.Span.with_span tracer "occasion.gather" (fun _ ->
        let gather p = Parallel.Pool.map p gather_site runs in
        match pool with
        | Some p -> gather p
        | None ->
          if config.Config.pool_size > 1 then
            Parallel.Pool.with_pool ~size:config.Config.pool_size gather
          else List.map gather_site runs)
  in
  Obs.Span.with_span tracer "occasion.teardown" (fun _ ->
      List.iter
        (fun run ->
          match run.sr_slice with
          | Some slice -> Allocator.delete_slice (Fablib.allocator fabric) slice
          | None -> ())
        runs);
  (* Success/failure series. *)
  Obs.Registry.incr obs_occasions;
  let ok = ref 0 in
  List.iter
    (fun r ->
      (match r.outcome with
      | Site_success | Site_degraded -> incr ok
      | Site_failed _ | Site_incomplete _ -> ());
      Obs.Registry.incr (obs_site_outcome r.outcome))
    reports;
  Obs.Span.annotate occ "sites_ok"
    (Printf.sprintf "%d/%d" !ok (List.length reports));
  Obs.Span.annotate occ "log_warnings"
    (string_of_int (Logging.count ~min_level:Logging.Warning log));
  let report =
    { occasion_start = start_time; occasion_duration = duration; sites = reports; log }
  in
  (* Close the loss ledger before the hooks run, so the live stack's
     collector sees this occasion's cumulative ledger counters (and a
     conservation violation is caught here, not at some later read). *)
  if Obs.Ledger.enabled () then
    ignore
      (Obs.Ledger.close_occasion
         ~log:(fun msg ->
           Logging.log log ~time:until ~level:Logging.Error ~component:"ledger"
             msg)
         Obs.Ledger.default);
  Atomic.incr completed;
  run_hooks report;
  report

let all_samples report = List.concat_map (fun r -> r.site_samples) report.sites
