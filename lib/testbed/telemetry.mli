(** MFlib-style telemetry: SNMP polling of switch counters into a
    Prometheus-like time-series store.

    FABRIC polls every switch port every 5 minutes; Patchwork consumes
    the resulting series to rank ports by activity, detect mirror
    congestion, and (in this reproduction) to regenerate the
    testbed-utilization figures. *)

type t

val create : Simcore.Engine.t -> t

val register_switch : t -> Switch.t -> unit
(** Add a site switch to the polling set. *)

val start : ?until:float -> t -> unit
(** Begin periodic polling on the engine. *)

val store : t -> Simcore.Timeseries.t
(** Raw access to the underlying series (keys are
    ["SITE/p<N>/tx_bytes"], [".../rx_bytes"], [".../tx_rate"],
    [".../rx_rate"], [".../drops"]). *)

val port_avg_rate :
  t -> site:string -> port:int -> window:float -> at:float -> float
(** Average Tx+Rx byte rate of a port over a trailing window, from the
    stored 5-minute rate samples; 0 if no samples. *)

val busiest_port :
  t -> site:string -> candidates:int list -> window:float -> at:float -> int option
(** The candidate port with the highest {!port_avg_rate}; [None] if
    every candidate is idle (zero rate). *)

val export_metrics : ?registry:Obs.Registry.t -> t -> unit
(** Re-export the most recent sample of every registered switch port
    (tx/rx rates, cumulative byte and drop counters) as labelled gauges
    [testbed_port_*{site=...,port=...}] in the metrics registry
    (default {!Obs.Registry.default}) — one exposition endpoint for the
    testbed's SNMP series and Patchwork's own pipeline metrics. *)
