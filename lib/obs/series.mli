(** Rolling time-series windows over {!Registry} metrics.

    The weekly service is long-running: a {!Registry} snapshot only says
    where the cumulative counters are {e now}, not how the system has
    been trending.  A {!t} is a fixed-capacity ring of [(time, value)]
    points (the oldest point is evicted beyond the capacity), and a
    {!Collector} derives the operational series of the paper's
    monitoring loop from successive registry snapshots — per-site drop
    rate, captured bytes per second, pool busy fraction, occasion
    outcome counts and the pool queue-wait p99 — one point per
    profiling occasion.

    All operations are mutex-protected, so the HTTP exposition domain
    may read ([/series.json], sparklines) while the coordinator's domain
    collects. *)

type point = { at : float; value : float }

type t

val create : ?capacity:int -> name:string -> ?labels:Registry.labels -> unit -> t
(** A rolling window retaining the newest [capacity] points (default
    512).  Raises [Invalid_argument] if [capacity < 1]. *)

val name : t -> string
val labels : t -> Registry.labels

val push : t -> at:float -> float -> unit
val length : t -> int
val capacity : t -> int

val points : t -> point list
(** Retained points, oldest first. *)

val last : t -> point option

val rate : t -> float option
(** Per-second change between the two newest points:
    [(v_n - v_{n-1}) / (t_n - t_{n-1})].  [None] with fewer than two
    points or non-increasing timestamps. *)

val avg_over : t -> window:float -> float option
(** Mean of the values whose [at] lies within [window] seconds of the
    newest point (inclusive).  [None] when empty. *)

val sparkline : ?width:int -> t -> string
(** The newest [width] (default 32) points as Unicode block characters
    scaled to the min/max of the rendered slice; empty string when the
    series is empty. *)

(** Derives operational series from successive snapshots of a registry.

    [collect] computes deltas against the previous snapshot, so the
    first call only records the baseline; every later call appends one
    point per derived series:

    - [site_drop_rate{site}] — [(Δswitch_dropped + Δhost_dropped) /
      Δoffered] from the [capture_*_frames_total] counters (0 when
      nothing was offered);
    - [captured_bytes_per_s] — [Δcapture_stored_bytes_total / Δat]
      (the caller's time axis, e.g. simulated seconds);
    - [pool_busy_fraction] — [Δpool_domain_busy_seconds_total] summed
      over domains, divided by the {e wall-clock} delta between
      collects times the domain count (busy seconds are wall time, so
      the fraction must not be scaled by the simulated axis);
    - [occasion_outcome_count{outcome}] — [Δoccasion_sites_total];
    - [pool_queue_wait_p99] — the 0.99 quantile upper bound of the
      {e delta} [pool_queue_wait_seconds] histogram (0 when no task was
      queued between collects). *)
module Collector : sig
  type series = t
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is the per-series window passed to {!create}. *)

  val collect : t -> at:float -> Registry.t -> unit

  val collect_points :
    t -> at:float -> Registry.t -> (string * Registry.labels * point) list
  (** Like {!collect}, but returns every point this round pushed (name,
      sorted labels, point) — the hand-off a persistence layer appends
      to durable storage. *)

  val push_point :
    t -> name:string -> ?labels:Registry.labels -> at:float -> float -> unit
  (** Append one externally computed point to the named window (creating
      it on first use) — e.g. federation staleness series, or history
      replayed from the on-disk store after a restart. *)

  val collections : t -> int
  (** Number of [collect] calls so far (including the baseline). *)

  val series : t -> series list
  (** Every derived series, sorted by name then labels. *)

  val find : t -> ?labels:Registry.labels -> string -> series option

  val to_json : t -> Export.Json.t
  (** [{ "series": [ { "name", "labels"?, "points": [{"at","value"}…] } … ] }] *)
end
