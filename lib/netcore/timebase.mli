(** Simulated-time helpers.

    Simulation time is a [float] count of seconds since the start of the
    simulated epoch (day 0, 00:00).  These helpers convert between that
    scale and the calendar-style units (days, weeks, months) used when
    reporting results, e.g. the weekly utilization series of Fig. 6. *)

type t = float
(** Seconds since the simulated epoch. *)

val hour : float
val day : float
val week : float

val day_of : t -> int
(** Zero-based day index. *)

val week_of : t -> int
(** Zero-based week index. *)
