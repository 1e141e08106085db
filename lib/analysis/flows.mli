(** Cross-sample flow aggregation.

    Flows are classified by virtualization tags plus network- and
    transport-layer fields; because 20-second samples rarely contain
    whole flows, the paper pieces flow {e snippets} together across
    samples and aggregates their packets.  That aggregation found most
    flows to be tiny while a few reached ~100 GB.

    Aggregation shards per group (one capture sample per shard) and
    merges shards in group order, so handing it a {!Parallel.Pool}
    parallelizes the sharding without changing a single bit of the
    result. *)

type summary = {
  flow_key : string;
  frames : float;
      (** observed frames, re-weighted by sampling fraction; an exact
          integer whenever the fraction is 1.0 *)
  bytes : float;  (** observed bytes, re-weighted by sampling fraction *)
  first_seen : float;
  last_seen : float;
  rst_seen : bool;
}

val compare_by_bytes : summary -> summary -> int
(** The canonical result ordering: bytes descending, then flow key
    ascending.  Shared by the shard merge, the profile builder and the
    flow-store query engine so that byte-tied flows order identically
    everywhere, independent of hash-table iteration order. *)

module Shard : sig
  type t
  (** A mutable accumulator of exact integer per-flow sums over one
      group of records (one capture sample).  {!aggregate} folds each
      group into its own shard and merges the shards with {!merge}; the
      profile builder hands one shard per sample to the flow-store
      writer. *)

  val create : unit -> t

  val add : t -> Dissect.Acap.record -> unit
  (** Fold one record in (records without a flow key are ignored). *)

  val fold :
    t ->
    init:'a ->
    f:
      ('a ->
      key:string ->
      frames:int ->
      bytes:int ->
      first:float ->
      last:float ->
      rst:bool ->
      'a) ->
    'a
  (** Fold over the per-flow integer sums in unspecified (hash) order;
      callers that need a canonical order sort afterwards, as the
      flow-store segment writer does. *)
end

val merge : ?log:Patchwork.Logging.t -> (Shard.t * float) list -> summary list
(** Merge shards (each with its sample's materialized fraction) into
    summaries.  For unit fractions the merge is exact-integer and
    shard-order-insensitive, and the final ordering breaks byte ties on
    the flow key, so the output depends only on the records fed in —
    never on how they were sharded.

    A non-empty shard whose fraction is [<= 0.0] is aggregated at weight
    1.0; each such group bumps
    [analysis_unweighted_samples_total{stage="flows"}] and logs a
    warning to [log] when one is given, so thinned-to-nothing samples
    are visible rather than silently unweighted. *)

val aggregate :
  ?pool:Parallel.Pool.t ->
  ?log:Patchwork.Logging.t ->
  ?weights:(Dissect.Acap.record list * float) list ->
  Dissect.Acap.record list ->
  summary list
(** Group records by flow key.  When [weights] is given, each record
    list carries the materialized fraction of its sample and both
    observed bytes and observed frames are scaled by its inverse (a
    thinned capture under-counts both). *)

val size_log_histogram : summary list -> Netcore.Histogram.Log2.t
(** Flow sizes in bytes, log2-binned. *)

val top_n : summary list -> int -> summary list
(** First [n] summaries (the largest flows, since summary lists are
    sorted by {!compare_by_bytes}); stops walking after [n] elements. *)
