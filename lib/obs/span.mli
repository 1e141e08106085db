(** Hierarchical timed spans.

    A tracer keeps an ambient stack of open spans: {!start} without an
    explicit parent attaches to the innermost open span, so layered code
    (coordinator phase -> digest stage -> flow merge) nests without
    threading span handles through every call.  Each finished span
    records wall time, the domain's minor-allocation delta
    ([Gc.minor_words], the count the [gates] case "decode registry
    overhead" bounds) and its children.

    Spans must be started and finished on the tracer's owning domain
    (pool workers report through the registry instead); the tracer's
    mutex only guards against accidental cross-domain use.

    When {!Registry.set_enabled} is off, [start] hands out a dummy span
    and records nothing. *)

type t
type span

val create : ?max_roots:int -> ?max_children:int -> ?seed:int -> unit -> t
(** [max_roots] bounds the finished-root history (default 1024); the
    oldest roots are dropped beyond it, each in constant time.

    [max_children] bounds how many children each span {e retains}
    (default unbounded): the first [max_children - max_children/2]
    children are always kept, and the remainder of the budget is a
    uniform reservoir over every later sibling, so week-long occasions
    cannot grow unbounded span trees.  Children sampled out of the tree
    still update their parent's exact aggregates ({!child_count},
    {!child_wall_total}).  [seed] drives the reservoir's deterministic
    PRNG. *)

val default : t
(** The process-wide tracer the instrumented layers write into. *)

val start : t -> ?parent:span -> string -> span
val finish : t -> span -> unit

val with_span : t -> ?parent:span -> string -> (span -> 'a) -> 'a
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

val wall : span -> float
(** Seconds; 0 until finished. *)

val minor_words : span -> float
val notes : span -> (string * string) list

val children : span -> span list
(** Retained children, oldest first (arrival order even through the
    reservoir). *)

val child_count : span -> int
(** Children ever attached — exact, including any sampled out. *)

val child_wall_total : span -> float
(** Total wall seconds of every finished child — exact, including any
    sampled out. *)

val sampled_out : span -> int
(** [child_count] minus the retained children. *)

val roots : t -> span list
(** Finished root spans, oldest first. *)

val dropped_roots : t -> int
val reset : t -> unit
