(** Discrete-event simulation engine.

    A single engine owns the simulated clock and an event queue ordered
    by (time, sequence number) — ties fire in scheduling order, which
    keeps simulations deterministic.  The testbed, traffic and host
    models all run on this engine. *)

type t

val create : ?start_time:float -> unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Run a callback [delay] seconds from now.  Negative delays are
    rejected. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Run a callback at an absolute time, which must not be in the past. *)

val schedule_batch : t -> times:float array -> (t -> int -> unit) -> unit
(** Enqueue a pre-sorted batch of events sharing one callback in a
    single operation.  [times] must be ascending absolute times with
    [times.(0)] not in the past; event [i] fires at [times.(i)] as
    [callback engine i].  The batch consumes one sequence number per
    event, exactly as the equivalent loop of {!schedule_at} calls
    would, so batched and per-event scheduling interleave and
    tie-break identically — simulations are bit-identical either way.
    An empty array is a no-op.  The array is owned by the engine
    afterwards and must not be mutated.

    The point is cost, not semantics: a batch of [n] events costs one
    small record and the caller's float array instead of [n] heap
    pushes, [n] event records and [n] closures. *)

val executed : t -> int
(** Total events delivered so far. *)

val batched_total : t -> int
(** Total events ever scheduled through {!schedule_batch}. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [until], stop once the next event would
    be past that time (the clock is then advanced to [until]). *)

val every : t -> period:float -> ?until:float -> (t -> unit) -> unit
(** Run a callback periodically, starting one period from now, until the
    optional end time. *)
