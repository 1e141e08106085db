(** Linux page-cache writeback model.

    Captured frames that bypass the kernel's network stack must still go
    through the kernel's file system, and at 100 Gbps the page cache
    becomes the bottleneck (paper §8.1.3 and Appendix B).  The model
    follows the kernel's behaviour:

    - dirty data accumulates in the cache as the writer writes;
    - the disk drains it at the storage's writeback rate;
    - above [dirty_background_ratio] the kernel starts asynchronous
      flushing (writers slow a little from flush competition);
    - at the {e midpoint} of [dirty_background_ratio] and [dirty_ratio]
      the kernel begins throttling the writing process
      ([balance_dirty_pages]), which is the steep latency cliff the
      paper found "surprisingly" before [dirty_ratio] itself. *)

type t

val create :
  free_cache_bytes:float ->
  drain_rate:float ->
  dirty_background_ratio:float ->
  dirty_ratio:float ->
  t
(** Ratios are percentages in (0, 100], with
    [dirty_background_ratio < dirty_ratio]. *)

val write : t -> float -> unit
(** Stage bytes into the cache (dirtying pages). *)

val advance : t -> dt:float -> unit
(** Let the disk drain for [dt] seconds. *)

val dirty_fraction : t -> float
(** Dirty bytes as a fraction of the free cache, in [0, 1]. *)

val used_percent : t -> float
(** [100 * dirty_fraction] — the x-axis of Fig. 14. *)

val throttle_threshold : t -> float
(** Midpoint of the two ratios: where writer throttling begins. *)

val throttle_factor : t -> float
(** Multiplier in (0, 1] on the writer's progress: 1 below the midpoint,
    then the drain-to-write balance the kernel enforces. *)

val writer_latency_multiplier : t -> float
(** Multiplier on per-writev latency: 1 below background, growing with
    flush competition, and jumping by orders of magnitude once the
    writer is throttled. *)

val total_written : t -> float
