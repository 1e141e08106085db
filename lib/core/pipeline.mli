(** The weekly service's occasion schedule.

    The weekly service's occasions are independent — each week builds
    its own engine, fabric and traffic driver — but their results must
    be folded into the cumulative profile in week order.  {!run_within}
    is how every occasion loop runs: it splits one core budget between
    a {e producer} (simulate + gather occasion [k]) and a {e consumer}
    (digest + absorb occasion [k-1]).  With two or more cores {!run}
    overlaps them: the producer runs on a background domain while the
    consumer runs on the calling domain, connected by a bounded
    in-order hand-off queue.  With one core both run inline, one after
    the other.  Because the queue preserves order and the consumer runs
    on one domain, an order-sensitive consumer such as
    [Analysis.Profile.Builder.add_report] produces output byte-identical
    to the sequential loop at any budget; only wall-clock changes.

    Each stage must own its resources: in particular a
    [Parallel.Pool] is owned by one domain at a time, so the producer
    and consumer must use distinct pools, as {!run_within} gives them.

    Shared observability state is safe across the two stages: the
    metrics registry and the ring log are mutex-protected, and the span
    tracer keeps one stack of open spans per domain, so each stage's
    spans form trees of their own.

    Metrics (in [Obs.Registry.default]): [pipeline_queue_depth] gauge,
    [pipeline_items_produced_total] / [pipeline_items_consumed_total],
    [pipeline_stage_busy_seconds_total{stage=produce|consume}] and
    [pipeline_overlap_seconds_total]. *)

type stats = {
  items : int;  (** items produced and consumed *)
  wall_s : float;  (** end-to-end wall time of the run *)
  produce_busy_s : float;  (** total seconds the producer stage worked *)
  consume_busy_s : float;  (** total seconds the consumer stage worked *)
  overlap_s : float;
      (** lower bound on concurrent stage work:
          [max 0 (produce_busy + consume_busy - wall)] *)
  max_depth : int;  (** high-water mark of the hand-off queue *)
}

val run :
  ?depth:int ->
  n:int ->
  produce:(int -> 'a) ->
  consume:(int -> 'a -> unit) ->
  unit ->
  stats
(** [run ~n ~produce ~consume ()] evaluates [consume k (produce k)] for
    [k = 0 .. n-1] with [produce] one stage ahead of [consume].
    [depth] (default 1) bounds how many finished-but-unconsumed items
    may exist, i.e. how far the producer may run ahead.

    [produce] runs on a background domain; [consume] runs on the
    calling domain, in item order.  If the background domain cannot be
    spawned, the whole run degrades to the plain sequential loop.

    An exception from [produce k] is re-raised in the caller after
    items [0 .. k-1] have been consumed; an exception from [consume]
    cancels the producer and is re-raised.  Raises [Invalid_argument]
    if [depth < 1] or [n < 0]. *)

val run_within :
  domains:int ->
  n:int ->
  produce:(Parallel.Pool.t -> int -> 'a) ->
  consume:(Parallel.Pool.t -> int -> 'a -> unit) ->
  stats
(** [run_within ~domains ~n ~produce ~consume] evaluates
    [consume pool k (produce pool k)] for [k = 0 .. n-1] within a budget
    of [domains] cores, each stage receiving its own pool.

    With [domains >= 2], [produce] gets a pool of [ceil (domains / 2)]
    and [consume] one of [floor (domains / 2)], and the stages overlap
    through {!run} at depth 1.  With [domains = 1] both stages share one
    sequential pool and run inline on the calling domain: no domain is
    spawned, and [overlap_s] and [max_depth] are 0.

    Exceptions propagate as in {!run}.  Raises [Invalid_argument] if
    [domains < 1] or [n < 0]. *)
