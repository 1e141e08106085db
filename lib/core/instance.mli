(** A Patchwork sampling instance.

    One instance corresponds to one listening VM with a dedicated NIC at
    one site.  It repeatedly: selects a port (via the cycling policy),
    installs a mirror session toward its NIC's switch port, captures a
    run of samples, tears the mirror down, and cycles.  A watchdog
    monitors the VM (storage exhaustion crashes the instance, which the
    coordinator later classifies as an incomplete run). *)

type status =
  | Running
  | Finished  (** reached the end of its occasion window *)
  | Crashed of string  (** watchdog-detected failure *)

type t

val create :
  fabric:Testbed.Fablib.t ->
  resolver:(int -> Traffic.Flow_model.spec option) ->
  config:Config.t ->
  log:Logging.t ->
  rng:Netcore.Rng.t ->
  site:string ->
  instance_id:int ->
  nic_port:int ->
  candidates:int list ->
  storage_bytes:float ->
  t
(** [nic_port] is the switch port wired to this instance's dedicated
    NIC (the mirror destination); [candidates] are the ports it may
    sample. *)

val start : t -> until:float -> unit
(** Schedule the instance's sampling activity on the engine. *)

val status : t -> status
val samples : t -> Capture.sample list
(** Completed samples, oldest first. *)

val storage_used : t -> float
val cycles_completed : t -> int
