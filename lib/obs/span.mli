(** Hierarchical timed spans.

    A tracer keeps one ambient stack of open spans per domain: {!start}
    attaches to the innermost span open on the calling domain, so
    layered code (coordinator phase -> digest stage -> flow merge) nests
    without threading span handles through every call, and two domains
    working at once (the weekly schedule's simulate and analysis stages)
    each build their own trees.  Each finished span records the domain
    it ran on, wall time, that domain's minor-allocation delta
    ([Gc.minor_words], the count the [gates] case "decode registry
    overhead" bounds) and its children.

    A span is finished on the domain that started it.  The stacks and
    the root history sit under the tracer's mutex, so any domain may
    trace.

    When {!Registry.set_enabled} is off, [start] hands out a dummy span
    and records nothing. *)

type t
type span

val create : unit -> t
(** A fresh tracer.  It keeps the newest 1,024 finished roots; the
    oldest root is dropped beyond that, in constant time. *)

val default : t
(** The process-wide tracer the instrumented layers write into. *)

val start : t -> string -> span
val finish : t -> span -> unit

val with_span : t -> string -> (span -> 'a) -> 'a
(** Start, run, finish (also on exception). *)

val annotate : span -> string -> string -> unit

val timed : ?tracer:t -> ?registry:Registry.t -> stage:string -> (unit -> 'a) -> 'a
(** The per-stage helper used on the pipeline hot layers: wraps [f] in a
    span named [stage] (ambient parent) and observes its wall time into
    the [stage_seconds{stage=...}] histogram of [registry] (both
    defaulting to the process-wide instances). *)

val name : span -> string

val start_time : span -> float
(** {!Clock} time at [start] (feeds the trace-event exporter). *)

val domain : span -> int
(** The id of the domain that started the span (the trace-event
    exporter's [tid]). *)

val wall : span -> float
(** Seconds; 0 until finished. *)

val minor_words : span -> float
val notes : span -> (string * string) list

val children : span -> span list
(** Oldest first. *)

val roots : t -> span list
(** Finished root spans, oldest first. *)

val dropped_roots : t -> int
val reset : t -> unit
