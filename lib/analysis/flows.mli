(** Cross-sample flow aggregation.

    Flows are classified by virtualization tags plus network- and
    transport-layer fields; because 20-second samples rarely contain
    whole flows, the paper pieces flow {e snippets} together across
    samples and aggregates their packets.  That aggregation found most
    flows to be tiny while a few reached ~100 GB.

    {!Profile} counts every statistic through {!Shard} and {!Totals};
    {!aggregate} and {!merge} are the same arithmetic over record
    lists and shards, kept as the reference the flow store's queries
    (and the benchmark's query oracle) are checked against. *)

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
      profile builder folds each sample into one shard, adds it to its
      {!Totals} and hands the same shard to the flow-store writer. *)

  val create : unit -> t

  val add : t -> Dissect.Acap.record -> unit
  (** Fold one record in (records without a flow key are ignored). *)

  type index
  (** An index of one shard's flows by the flow identities
      ({!Dissect.Acap.Fields.identity}) of the frames a digest fold
      dissects into it, so the fold finds a frame's flow without
      rendering its key.  It lives for one fold. *)

  val index : t -> index
  (** An empty index over the shard. *)

  val add_frame : index -> Dissect.Acap.Fields.t -> ts:float -> orig_len:int -> unit
  (** Fold one dissected frame into the index's shard, as {!add} folds
      its record (frames without a flow key are ignored): how the
      profile counts a pcap-carrying sample, which it digests without
      building records.  The frame's flow is found by its identity,
      hashed and compared in place; its key is rendered only when the
      index meets the identity for the first time, and the flow is
      found through it. *)

  val is_empty : t -> bool

  val fold_weighted :
    t ->
    weight:float ->
    init:'a ->
    f:
      ('a ->
      key:string ->
      frames:float ->
      bytes:float ->
      first:float ->
      last:float ->
      rst:bool ->
      'a) ->
    'a
  (** Fold over the shard's flows in unspecified (hash) order, each
      integer sum scaled once: [frames = float n *. weight], and bytes
      alike.  This is where a sample's weight meets its flow counts:
      {!Totals}, and through it {!merge} and the profile, add these
      products, and the flow-store writer stores them, so all three
      agree bit for bit.  Callers that need a canonical order sort
      afterwards, as the segment writer does. *)
end

val weight_of_fraction : float -> float
(** A sample's weight: [1 /. fraction], or 1.0 for a fraction [<= 0.0],
    which cannot be re-weighted. *)

module Totals : sig
  type t
  (** Running weighted per-flow sums over a sequence of shards: what
      {!merge} folds its shards into, and what the profile builder
      keeps across a run. *)

  val create : unit -> t

  val add : t -> Shard.t -> weight:float -> unit
  (** Add each flow of the shard once, as {!Shard.fold_weighted} scales
      it.  Floats are added in call order, so two tables fed the same
      shards in the same order hold the same bits. *)

  val summaries : t -> summary list
  (** Sorted by {!compare_by_bytes}. *)
end

val merge : (Shard.t * float) list -> summary list
(** Merge shards (each with its sample's materialized fraction) into
    summaries.  For unit fractions the merge is exact-integer and
    shard-order-insensitive, and the final ordering breaks byte ties on
    the flow key, so the output depends only on the records fed in —
    never on how they were sharded.  A shard whose fraction is
    [<= 0.0] is aggregated at weight 1.0. *)

val aggregate :
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
