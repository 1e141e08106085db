(** The Patchwork coordinator.

    Runs outside the testbed and drives the four-phase workflow of
    §6.2: {e setup} (decide sites, acquire resources with back-off),
    {e sampling} (instances cycle ports and capture), {e gathering}
    (collect captures + logs, release resources), and hands the result
    to the offline {e analysis} phase (the [Analysis] library). *)

type site_outcome =
  | Site_success
  | Site_degraded  (** ran, but with fewer instances after back-off *)
  | Site_failed of string  (** no resources or back-end errors *)
  | Site_incomplete of string  (** an instance crashed mid-run *)

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

val run_occasion :
  fabric:Testbed.Fablib.t ->
  driver:Traffic.Driver.t ->
  config:Config.t ->
  ?pool:Parallel.Pool.t ->
  ?log:Logging.t ->
  ?max_instances:int ->
  start_time:float ->
  duration:float ->
  unit ->
  occasion_report
(** Execute one full profiling occasion on an engine whose current time
    is [start_time]: starts telemetry and traffic, acquires resources at
    every target site, runs all instances for [duration] seconds of
    simulated time, then gathers and releases.

    [log] supplies the run log (default: a fresh unbounded
    [Logging.create ()]); the long-running weekly service passes one
    bounded ring log shared across occasions so [/logs.json] can tail
    it.

    In [All_experiments] mode the target sites are every profilable site
    of the federation; in [Single_experiment] mode only the sites (and
    ports) of the user's slice. *)

type hook_handle

val on_occasion_complete : (occasion_report -> unit) -> hook_handle
(** Register a hook invoked (in registration order) after every
    completed occasion — the live exposition stack uses this to sample
    series and evaluate alert rules.  Exceptions are caught and logged
    as warnings into the occasion's log.  The returned handle
    unregisters the hook via {!remove_hook}, so a stopped exposition
    stack no longer receives occasions. *)

val remove_hook : hook_handle -> unit
(** Unregister a hook; idempotent. *)

val ready : unit -> bool
(** At least one occasion has completed — the [/readyz] signal. *)

val all_samples : occasion_report -> Capture.sample list
