(** Metrics registry: labelled counters, gauges and log-bucketed
    histograms.

    Cells are individually locked, so any domain of a [Parallel.Pool]
    may update them concurrently; totals are sums and bucket counts, so
    a snapshot taken after a parallel phase is independent of the pool
    size (histogram sums are additionally bit-exact whenever the
    observed values are integers below 2{^53}, the same exact-integer
    discipline as [Analysis.Flows]).

    A process-wide {!default} registry serves the instrumented layers
    (pool, coordinator, capture, digest); isolated registries from
    {!create} serve tests.  The global {!set_enabled} switch turns every
    update into a no-op, which is how the [gates] cases "decode registry
    overhead" and "instrumentation share of occasion" measure the
    instrumentation overhead. *)

type t

type labels = (string * string) list
(** Label pairs; canonicalized (sorted by key) on registration. *)

type counter
type gauge
type histogram

val create : unit -> t

val default : t
(** The process-wide registry the instrumented layers write into. *)

val set_enabled : bool -> unit
(** Globally enable/disable metric updates (and span recording).
    Enabled by default. *)

val enabled : unit -> bool

val counter : t -> ?help:string -> ?labels:labels -> string -> counter
(** Register (or fetch) the counter cell [name]/[labels].
    @raise Invalid_argument if [name] exists with a different kind. *)

val gauge : t -> ?help:string -> ?labels:labels -> string -> gauge
val histogram : t -> ?help:string -> ?labels:labels -> string -> histogram

val inc : counter -> float -> unit
(** Add to a counter; negative increments raise [Invalid_argument]. *)

val incr : counter -> unit
(** [inc c 1.0]. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record a value into the log{_2}-bucketed histogram (plus running
    count and sum). *)

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;
      (** (upper bound, cumulative count) pairs, ending with
          [(infinity, h_count)]; only buckets whose cumulative count
          changed from the previous bound are listed, plus the +Inf
          bucket. *)
}

type value =
  | Counter of float
  | Gauge of float
  | Histogram of hist_snapshot

type sample = {
  s_name : string;
  s_labels : labels;
  s_help : string;
  s_value : value;
}

val snapshot : t -> sample list
(** Deterministic order: by name, then labels. *)

val value : t -> ?labels:labels -> string -> value option
(** Read one cell's current value. *)
