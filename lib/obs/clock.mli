(** Wall-clock source for the whole observability layer.

    Injectable so tests can drive spans and the series collector's
    wall-clock deltas with a fake clock. *)

val now : unit -> float
(** Seconds since the epoch, from the current source. *)

val set_source : (unit -> float) -> unit
(** Replace the clock (tests); affects every [now] process-wide. *)

val reset_source : unit -> unit
(** Restore [Unix.gettimeofday]. *)
