(** A small fixed-size domain work pool for the offline pipeline.

    The paper's Digest/Analyze stages are embarrassingly parallel
    over samples and packets; this pool runs them across OCaml 5 domains
    while keeping every result deterministic: [map] preserves input
    order, and [map_ranges] returns its range results in range order.
    Running with a pool of size 1 therefore produces bit-identical
    output to running with any larger pool.

    The pool is built on stdlib [Domain]/[Mutex]/[Condition] (plus the
    in-tree [Obs] metrics) and degrades gracefully: a requested size of
    1 — or any failure to spawn domains — yields a pool that executes
    everything sequentially in the calling domain.

    Every executed batch reports into [Obs.Registry.default]:
    per-domain busy seconds and task counts
    ([pool_domain_busy_seconds_total{domain=...}],
    [pool_domain_tasks_total{domain=...}]) and a
    [pool_queue_wait_seconds] histogram of how long tasks sat in the
    shared queue.  A task is credited to the domain that ran it, whose
    [domain] label is its [Domain.self] id (["0"] is the program's
    first domain), whatever pool it came from: two pools owned by two
    domains, such as the weekly schedule's stages, credit two series,
    and a domain that owns several pools in turn credits one.
    [Obs.Registry.set_enabled false] turns all of it off. *)

type t

val default_size : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val sequential : t
(** A shared always-sequential pool (no worker domains); useful as the
    default for [?pool] arguments. *)

val size : t -> int
(** Actual parallelism: worker domains + the calling domain. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]: [f] runs on chunks of the list across domains,
    results are reassembled in input order.  [f] must be pure (it runs
    concurrently and, on the sequential fallback, in arbitrary chunk
    order).  Exceptions raised by [f] are re-raised in the caller, the
    earliest (by input position) first. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Array flavour of {!map}. *)

val map_ranges : t -> ?range_count:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_ranges t ~n f] splits the index range [\[0, n)] into at most
    [range_count] (default 4× the pool size) near-equal contiguous
    sub-ranges, evaluates [f ~lo ~hi] for each across the pool, and
    returns the results in range order.  This is how the indexed pcap
    decode hands each worker a byte range of a shared capture buffer.

    Range boundaries depend on [range_count]; a caller that needs output
    independent of the pool size must either fix [range_count] or (as
    the decode paths do) combine range results in a boundary-insensitive
    way — concatenation in range order, or an exact merge.  [f] must be
    pure; exceptions are re-raised in the caller, earliest range first. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** A pool with [size] total degrees of parallelism (the calling domain
    participates, so [size - 1] worker domains are spawned; default
    {!default_size}), passed to the function and joined when it returns
    or raises.  [size <= 1] or a [Domain.spawn] failure falls back
    toward sequential execution with however many workers exist.
    Raises [Invalid_argument] if [size < 1]. *)
