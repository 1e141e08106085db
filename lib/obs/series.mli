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

val create : name:string -> ?labels:Registry.labels -> unit -> t
(** A rolling window retaining the newest 512 points. *)

val name : t -> string
val labels : t -> Registry.labels

val push : t -> at:float -> float -> unit

val points : t -> point list
(** Retained points, oldest first. *)

val last : t -> point option

val sparkline : ?width:int -> t -> string
(** The newest [width] (default 32) points as Unicode block characters
    scaled to the min/max of the rendered slice; empty string when the
    series is empty. *)

(** Derives operational series from successive snapshots of a registry.

    [collect] reads the snapshot once, into a table keyed by (name,
    sorted labels), and computes deltas against the previous collect's
    table, so the first call only records the baseline; every later call
    appends one point per derived series:

    - [site_drop_rate{site}] — [(Δledger_offered_frames_total -
      Δledger_stored_frames_total - Δsampled) / Δoffered] from the loss
      ledger's per-site counters, where [sampled] is
      [ledger_attributed_frames_total{cause="sampled"}]: loss only, so a
      loss-free 1-in-N offload reads 0 (0 when nothing was offered, so a
      [for N] alert clears);
    - [captured_bytes_per_s] — [Δcapture_stored_bytes_total / Δat]
      (the caller's time axis, e.g. simulated seconds);
    - [pool_busy_fraction] — [Δpool_domain_busy_seconds_total] summed
      over domains, divided by the {e wall-clock} delta between
      collects times the domain count (busy seconds are wall time, so
      the fraction must not be scaled by the simulated axis).  The
      pool labels each domain's series by its [Domain.self] id, so the
      count is the number of domains that have run a pool task, and two
      stages on two domains are two, not one;
    - [occasion_outcome_count{outcome}] — [Δoccasion_sites_total];
    - [pool_queue_wait_p99] — the 0.99 quantile upper bound of the
      {e delta} [pool_queue_wait_seconds] histogram (0 when no task was
      queued between collects);
    - [ledger_{offered,stored}_{frames,bytes}{site}] and
      [loss_attributed_{frames,bytes}{site,cause}] — the deltas of the
      ledger's counters, only for the sites and causes that moved. *)
module Collector : sig
  type series = t
  type t

  val create : unit -> t

  val collect : t -> at:float -> Registry.t -> unit

  val collect_points :
    t -> at:float -> Registry.t -> (string * Registry.labels * point) list
  (** Like {!collect}, but returns every point this round pushed (name,
      sorted labels, point) — the hand-off a persistence layer appends
      to durable storage. *)

  val push_point :
    t -> name:string -> ?labels:Registry.labels -> at:float -> float -> unit
  (** Append one externally computed point to the named window (creating
      it on first use), without a registry collect. *)

  val series : t -> series list
  (** Every derived series, sorted by name then labels. *)

end
