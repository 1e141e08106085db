(** MFlib-style telemetry: SNMP polling of switch counters.

    FABRIC polls every switch port every 5 minutes into a Prometheus
    database; Patchwork consumes the resulting series to rank ports by
    activity, detect mirror congestion, and (in this reproduction) to
    regenerate the testbed-utilization figures.  Here each registered
    switch keeps its series as per-port columns: every poll after the
    first adds one row of tx and rx byte rates, and the last poll's
    cumulative counters are kept for export. *)

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

val export_metrics : ?registry:Obs.Registry.t -> t -> unit
(** Re-export the most recent sample of every registered switch port
    (tx/rx rates, cumulative byte and drop counters) as labelled gauges
    [testbed_port_*{site=...,port=...}] in the metrics registry
    (default {!Obs.Registry.default}) — one exposition endpoint for the
    testbed's SNMP series and Patchwork's own pipeline metrics. *)
