(** An append-only time-series store, one series per string key.

    This models the Prometheus database behind FABRIC's MFlib: SNMP
    pollers append (time, value) samples for each metric and queries
    read ranges. *)

type t

val create : unit -> t

val append : t -> key:string -> time:float -> float -> unit
(** Append a sample.  Times must be non-decreasing per key. *)

val last : t -> key:string -> (float * float) option
(** Most recent (time, value) sample. *)

val range : t -> key:string -> start_time:float -> end_time:float -> (float * float) list
(** Samples with [start_time <= time <= end_time], in time order. *)
