(** Runtime resource scaling — the paper's future-work controller.

    Patchwork's published design reserves all resources at start-up
    (§6.3, limitation 2).  The authors propose a controller that scales
    at runtime: scaling {e up} is easy (acquire another listening node
    when one becomes available), while scaling {e down} needs a signal;
    they suggest a "nice" factor that backs the profiler off when the
    testbed is busy.

    This module implements that proposal:

    - {b scale-up}: when the site has spare dedicated NICs and the
      scaler is below its ceiling, acquire one more instance (each in
      its own one-VM slice, so it can be released independently);
    - {b scale-down (nice)}: when the site's free dedicated NICs fall to
      zero while we hold more than our floor, release an instance — the
      profiler should never be the one holding the last NICs during a
      crunch. *)

type policy = {
  check_interval : float;  (** seconds between control decisions *)
  min_instances : int;  (** never release below this floor *)
  max_instances : int;  (** never acquire above this ceiling *)
  nice_free_nics : int;
      (** scale down when free dedicated NICs <= this (0 = only when
          the site is fully exhausted) *)
}

val default_policy : policy
(** Check every 10 minutes, floor 1, ceiling 4, nice at 0 free NICs. *)

type event =
  | Scaled_up of { at : float; instances : int }
  | Scaled_down of { at : float; instances : int }

type t

val create :
  fabric:Testbed.Fablib.t ->
  resolver:(int -> Traffic.Flow_model.spec option) ->
  config:Config.t ->
  log:Logging.t ->
  rng:Netcore.Rng.t ->
  site:string ->
  policy:policy ->
  t

val start : t -> until:float -> unit
(** Acquire the floor, start sampling, and begin the control loop. *)

val live_instances : t -> int
val events : t -> event list
(** Scaling decisions, oldest first. *)

val samples : t -> Capture.sample list
val slice_seconds : t -> float
(** Total slice-seconds held so far (the frugality metric). *)

val shutdown : t -> unit
(** Release every slice still held. *)
