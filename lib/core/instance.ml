module Fablib = Testbed.Fablib
module Switch = Testbed.Switch

type status = Running | Finished | Crashed of string

type t = {
  fabric : Fablib.t;
  resolver : int -> Traffic.Flow_model.spec option;
  config : Config.t;
  log : Logging.t;
  rng : Netcore.Rng.t;
  site : string;
  instance_id : int;
  nic_port : int;
  cycling : Port_cycling.t;
  storage_bytes : float;
  mutable status : status;
  mutable samples : Capture.sample list;  (* newest first *)
  mutable storage_used : float;
  mutable cycles : int;
  mutable until : float;
}

let name t = Printf.sprintf "%s/instance-%d" t.site t.instance_id

let obs_counter name site =
  Obs.Registry.counter Obs.Registry.default name ~labels:[ ("site", site) ]

let create ~fabric ~resolver ~config ~log ~rng ~site ~instance_id ~nic_port
    ~candidates ~storage_bytes =
  let uplinks = Fablib.uplink_ports fabric ~site in
  let candidates = List.filter (fun p -> p <> nic_port) candidates in
  {
    fabric;
    resolver;
    config;
    log;
    rng;
    site;
    instance_id;
    nic_port;
    cycling =
      Port_cycling.create config.Config.port_selection ~rng ~site ~candidates
        ~uplinks;
    storage_bytes;
    status = Running;
    samples = [];
    storage_used = 0.0;
    cycles = 0;
    until = 0.0;
  }

let status t = t.status
let samples t = List.rev t.samples
let storage_used t = t.storage_used
let cycles_completed t = t.cycles

let log_event t ~level event =
  let now = Simcore.Engine.now (Fablib.engine t.fabric) in
  Logging.log t.log ~time:now ~level ~component:(name t) event

(* Watchdog check after every sample: the VM's disk is the hard limit
   (finding A4: frames can be captured faster than they can be
   stored). *)
let watchdog_check t =
  if t.storage_used > t.storage_bytes then begin
    t.status <- Crashed "storage exhausted";
    Obs.Registry.incr (obs_counter "instance_crashes_total" t.site);
    log_event t ~level:Logging.Error "watchdog: instance crashed (storage exhausted)"
  end

(* Seconds of switch telemetry behind the busiest-port rank. *)
let busiest_window = 1800.0

let rec schedule_cycle t =
  let engine = Fablib.engine t.fabric in
  if t.status <> Running then ()
  else if Simcore.Engine.now engine >= t.until then begin
    t.status <- Finished;
    log_event t ~level:Logging.Info
      (Printf.sprintf "finished: %d samples over %d cycles" (List.length t.samples)
         t.cycles)
  end
  else begin
    let now = Simcore.Engine.now engine in
    let telemetry = Fablib.telemetry t.fabric in
    match
      Port_cycling.next t.cycling ~telemetry
        ~window:busiest_window ~at:now
    with
    | None ->
      (* Nothing to sample right now; try again next interval. *)
      Simcore.Engine.schedule engine ~delay:t.config.Config.sample_interval (fun _ ->
          schedule_cycle t)
    | Some port -> begin
      let sw = Fablib.switch t.fabric ~site:t.site in
      match Switch.add_mirror sw ~src_port:port ~dirs:Switch.Both ~dst_port:t.nic_port
      with
      | Error msg ->
        log_event t ~level:Logging.Warning
          (Printf.sprintf "mirror of port %d failed: %s" port msg);
        Simcore.Engine.schedule engine ~delay:t.config.Config.sample_interval
          (fun _ -> schedule_cycle t)
      | Ok mirror ->
        log_event t ~level:Logging.Debug (Printf.sprintf "cycling to port %d" port);
        run_samples t ~mirror ~port ~remaining:t.config.Config.samples_per_run
    end
  end

and run_samples t ~mirror ~port ~remaining =
  let engine = Fablib.engine t.fabric in
  let finish_cycle () =
    let sw = Fablib.switch t.fabric ~site:t.site in
    Switch.remove_mirror sw mirror;
    t.cycles <- t.cycles + 1;
    Obs.Registry.incr (obs_counter "instance_cycles_total" t.site);
    schedule_cycle t
  in
  if t.status <> Running then begin
    let sw = Fablib.switch t.fabric ~site:t.site in
    Switch.remove_mirror sw mirror
  end
  else if remaining <= 0 || Simcore.Engine.now engine >= t.until then finish_cycle ()
  else if Netcore.Rng.bernoulli t.rng t.config.Config.instance_crash_prob then begin
    t.status <- Crashed "unexpected termination";
    Obs.Registry.incr (obs_counter "instance_crashes_total" t.site);
    log_event t ~level:Logging.Error "watchdog: instance terminated unexpectedly";
    let sw = Fablib.switch t.fabric ~site:t.site in
    Switch.remove_mirror sw mirror
  end
  else begin
    let sample =
      Capture.run ~fabric:t.fabric ~resolver:t.resolver ~config:t.config ~rng:t.rng
        ~site:t.site ~mirror ~mirrored_port:port
    in
    t.samples <- sample :: t.samples;
    Obs.Registry.incr (obs_counter "instance_samples_total" t.site);
    t.storage_used <- t.storage_used +. sample.Capture.stats.Capture.stored_bytes;
    if sample.Capture.stats.Capture.congestion_detected then
      log_event t ~level:Logging.Warning
        (Printf.sprintf "mirror congestion on port %d: sample incomplete at the switch"
           port);
    watchdog_check t;
    (* The sample itself occupies sample_duration; the next one starts
       one interval after this one began. *)
    Simcore.Engine.schedule engine ~delay:t.config.Config.sample_interval (fun _ ->
        run_samples t ~mirror ~port ~remaining:(remaining - 1))
  end

let start t ~until =
  t.until <- until;
  log_event t ~level:Logging.Info
    (Printf.sprintf "starting: NIC port %d, %s capture"
       t.nic_port
       (match t.config.Config.capture_method with
       | Config.Tcpdump -> "tcpdump"
       | Config.Dpdk _ -> "DPDK"
       | Config.Fpga_dpdk _ -> "FPGA+DPDK"));
  schedule_cycle t
