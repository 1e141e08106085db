(** Spillable on-disk flow-record store with an occasion query engine.

    Profiles and flow tables otherwise live wholly in one heap, capping
    a run at what memory holds.  This store writes flow records in a
    compact binary, NetFlow/IPFIX-flavoured format — one weighted record
    per (flow, capture-sample group) — as sorted, mergeable {e segment}
    files, and answers time/site/proto predicates, top-k and size
    distributions by a bounded-memory k-way merge over the segments,
    never rehydrating whole occasions.

    {2 Determinism contract}

    A record stores the {e exact} weighted contribution its sample group
    would feed [Flows.merge] (the same float products), tagged with a
    global group sequence number.  Segments keep records sorted by
    [(flow key, seq)] and the query engine replays contributions per key
    in ascending [seq] order — the same additions, in the same order, as
    the in-memory merge.  A query over spilled segments therefore
    returns {e byte-identical} summaries (same order, same weighted
    totals) to [Flows.aggregate] over the same groups, for any spill
    threshold and any fractions.

    Every segment is committed whole by {!Obs.Segment.write}, so a
    killed spill never yields part of a group, and a directory holds
    one run's segments. *)

type record = {
  r_key : string;  (** flow key, as [Dissect.Acap.flow_key] renders it *)
  r_site : string;  (** capture site of the contributing sample *)
  r_seq : int;  (** global sample-group sequence (replay order) *)
  r_frames : float;  (** weighted frames contributed by this group *)
  r_bytes : float;  (** weighted bytes contributed by this group *)
  r_first : float;
  r_last : float;
  r_rst : bool;
}

exception Corrupt of string
(** Raised when a segment file fails validation; the message names the
    file and the failing record.  Equal to {!Obs.Segment.Corrupt}. *)

val proto_of_key : string -> string
(** The transport token ([tcp]/[udp]/[icmp]/…) embedded in a flow key. *)

val schema : record Obs.Segment.schema
(** The [.pwfs] segment schema: records sorted strictly by
    [(r_key, r_seq)] and a flags byte with only bit 0 (RST) valid. *)

module Writer : sig
  (** Accumulates weighted per-group records in memory and spills a
      sorted segment whenever the buffer exceeds the spill threshold, so
      peak heap stays bounded by the threshold however long the run. *)

  type t

  val create : ?spill_records:int -> dir:string -> unit -> t
  (** Segments are written to [dir] (created if missing) as
      [flows-NNNNNN.pwfs], and leftover temporaries of a killed spill
      are deleted.  [spill_records] (default [200_000]) bounds the
      number of buffered records; the buffer is flushed at group
      boundaries, never mid-group.
      @raise Invalid_argument when [dir] already holds [.pwfs]
      segments: a second run would restart at segment 0 and group
      seq 0 over the first run's. *)

  val add_shard : t -> site:string -> fraction:float -> Flows.Shard.t -> unit
  (** Append one capture sample's shard as the next group: each flow in
      the shard becomes one record carrying the exact weighted
      contribution [Flows.merge] would apply for [fraction].  A
      non-empty shard with [fraction <= 0.0] is stored at weight 1.0 and
      counted via [analysis_unweighted_samples_total{stage="flow_store"}]. *)

  val finish : t -> string list
  (** Flush the remaining buffer and return every segment path written,
      in write order.  The writer must not be used afterwards. *)

  val spilled_bytes : t -> int
end

val segments_in_dir : string -> string list
(** The [*.pwfs] files under a directory, sorted by name (write order,
    since segment names are zero-padded). *)

type predicate = {
  q_since : float option;  (** keep flows with [r_last >= since] *)
  q_until : float option;  (** keep flows with [r_first <= until] *)
  q_site : string option;  (** exact site match *)
  q_proto : string option;  (** transport token match, e.g. ["tcp"] *)
}

val no_predicate : predicate

val predicate :
  ?since:float -> ?until:float -> ?site:string -> ?proto:string -> unit ->
  predicate

type query_stats = {
  segments_scanned : int;
  records_scanned : int;  (** records read from disk *)
  records_matched : int;  (** records surviving the predicate *)
  distinct_flows : int;  (** flows after merging matched records *)
  total_frames : float;  (** weighted, over matched flows *)
  total_bytes : float;
  wall_s : float;
}

type query_result = {
  flows : Flows.summary list;
      (** sorted by {!Flows.compare_by_bytes}; all matched flows, or the
          best [top] when one was given *)
  size_hist : Netcore.Histogram.Log2.t;
      (** log2 size distribution over {e every} matched flow, even under
          [top] *)
  stats : query_stats;
}

val query : ?pred:predicate -> ?top:int -> string list -> query_result
(** Scan segment files with a k-way merge.  Memory is bounded by one
    block and one decoded record per segment ({!Obs.Segment}) plus the
    result: with [top] given, the result is a [top]-element selection,
    and a finished flow that does not beat the current [top]-th is
    dropped before its summary is built, so a top-k query over a
    year-long store never materializes the full flow table.  Without
    [top] and without a predicate, [flows] is byte-identical to
    [Flows.aggregate] over the groups the store was written from.
    @raise Corrupt on a malformed segment. *)

val lookup : keys:string list -> string list -> (string * Flows.summary option) list
(** Targeted lookup of specific flow keys (the loss ledger's exemplar
    drill-down): one merge scan over the segments, returning per input
    key (in input order) the key's merged summary, or [None] when the
    store has no record of it.  A found summary equals the key's entry
    in a full {!query}.
    @raise Corrupt on a malformed segment. *)
