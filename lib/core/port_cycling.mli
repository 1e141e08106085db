(** Port-selection heuristics for mirror cycling.

    Patchwork usually has far fewer dedicated NICs than there are switch
    ports worth sampling, so instances take turns mirroring ports.  The
    default heuristic is the paper's "busiest-ports bias, 1/n other
    non-idle port": during every n-1 of n cycles it picks a random
    non-idle port, and on the remaining cycle the busiest port that has
    not been sampled during the last n cycles — fair coverage of
    non-idle ports without starving quiet ones. *)

type t

val create :
  Config.port_selection ->
  rng:Netcore.Rng.t ->
  site:string ->
  candidates:int list ->
  uplinks:int list ->
  t
(** [candidates] are the ports this instance may mirror (Patchwork's own
    NIC ports already excluded). *)

val next :
  t ->
  telemetry:Testbed.Telemetry.t ->
  window:float ->
  at:float ->
  int option
(** Choose the next port to mirror; [None] when the heuristic has no
    eligible port (e.g. empty candidate set).  Consults telemetry for
    activity ranking. *)
