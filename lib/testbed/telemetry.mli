(** MFlib-style telemetry: SNMP polling of switch counters.

    FABRIC polls every switch port every 5 minutes into a Prometheus
    database; Patchwork only reads the resulting series, to rank ports
    by activity, detect mirror congestion, and (in this reproduction)
    regenerate the testbed-utilization figures; it never republishes
    it.  Here each registered switch keeps its series as per-port
    columns, read in place: every poll after the first adds one row of
    tx and rx byte rates, taken from the last poll's cumulative byte
    counters. *)

type t

val create : Simcore.Engine.t -> t

val register_switch : t -> Switch.t -> unit
(** Add a site switch to the polling set.
    @raise Invalid_argument if a switch of the same site is registered. *)

val start : ?until:float -> t -> unit
(** Begin polling every 5 minutes on the engine. *)

val port_avg_rate :
  t -> site:string -> port:int -> window:float -> at:float -> float
(** Average Tx+Rx byte rate of a port over the trailing window
    [\[at - window, at\]], both edges included, from the stored 5-minute
    rate samples; 0 if no samples, or for an unknown site or port. *)

val busiest_port :
  t -> site:string -> candidates:int list -> window:float -> at:float -> int option
(** The first candidate port with the highest {!port_avg_rate}; [None] if
    every candidate is idle (zero rate). *)
