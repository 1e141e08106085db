(** Event-driven traffic generation on the simulated testbed.

    The driver owns the per-site workload profiles, creates flows as
    Poisson arrivals modulated by the seasonal activity curve, attaches
    their rates to the relevant switch ports (source-server Rx,
    destination-server Tx, and uplinks for cross-site flows), and
    detaches them when they end.

    Synthesis is organized around independent per-site generators: every
    random draw a site's flows need (arrival chain, thinning, flow
    character, port placement — including the remote ports of its
    cross-site flows) comes from that site's own SplitMix64 stream, and
    flow ids are striped ([site_index + k * n_sites]) instead of drawn
    from a shared counter.  Arrivals are presampled one slab of
    simulated time at a time, one pool task per site, then handed to the
    engine as one pre-sorted {!Simcore.Engine.schedule_batch} block per
    site-slab; because no site's stream depends on any other's, the
    spawned flows and specs are bit-identical at any pool size and any
    slab length.

    Frames are never generated here — switches only carry rates.  When a
    capture runs, it reads the attachments of the mirrored port and asks
    {!resolver} for each flow's {!Flow_model.spec} to materialize frames
    for just that window. *)

type t

val create :
  ?pool:Parallel.Pool.t -> ?slab:float -> Testbed.Fablib.t -> seed:int -> t
(** [create fabric ~seed] builds the per-site generators (profiles,
    port tables, cross-site weight tables) for every site of the
    fabric's model.  [pool] (default {!Parallel.Pool.sequential}) runs
    the per-site presampling; [slab] (default 900 simulated seconds)
    bounds how far ahead arrivals are materialized.  Neither affects
    the generated traffic, only wall-clock and memory.  Raises
    [Invalid_argument] if [slab <= 0]. *)

val start : t -> until:float -> unit
(** Begin flow arrivals at every site, running until the given absolute
    time: presamples the first slab immediately and schedules a refill
    at each slab boundary. *)

val resolver : t -> int -> Flow_model.spec option
(** Look up the spec of a currently attached flow handle. *)

val live_flow_count : t -> int
(** Flows whose spec is still held: attached and not yet ended. *)
