(** The testbed as seen by a user — a facade over the information model,
    per-site switches, allocator and telemetry, mirroring the FABRIC
    APIs (FABlib + MFlib) that Patchwork is written against.

    Port numbering convention at each site: ports [0 .. uplinks-1] are
    uplinks to other sites; ports [uplinks .. total-1] are downlinks to
    the site's servers. *)

type t

val create : seed:int -> Simcore.Engine.t -> t
(** Instantiate a federation: generates the information model and one
    switch per site, wires up telemetry, and creates the allocator. *)

val engine : t -> Simcore.Engine.t
val model : t -> Info_model.t
val allocator : t -> Allocator.t
val telemetry : t -> Telemetry.t
val rng : t -> Netcore.Rng.t

val switch : t -> site:string -> Switch.t
(** The ToR switch of a site; raises [Not_found] for unknown sites. *)

val uplink_ports : t -> site:string -> int list
val downlink_ports : t -> site:string -> int list
val all_ports : t -> site:string -> int list

val start_telemetry : ?until:float -> t -> unit
(** Begin the 5-minute SNMP polling across all sites. *)
