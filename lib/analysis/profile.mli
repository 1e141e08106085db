(** A complete network profile, assembled from profiling occasions.

    This is the artifact the whole system exists to produce: the
    testbed-wide picture of §8.2, with per-site breakdowns and the
    aggregate statistics the paper reports.

    A profile over many occasions does not fit in memory as raw records
    (the paper's captures ran to dozens of gigabytes), so {!Builder}
    folds occasions in one at a time, keeping only aggregates; each
    occasion's records are dropped as soon as they are absorbed.

    It is also the one implementation of the Analyze step: [analyze]
    profiles one capture ({!of_pcap}), and [dissect], the examples and
    the paper harness profile one record list ({!of_records}), through
    the counting a sample goes through. *)

type site_headers = {
  hs_site : string;
  distinct_headers : int;  (** distinct protocol/service tokens seen *)
  deepest_stack : int;  (** maximum header-stack depth observed *)
  frames : int;
}

type t = {
  occasions : int;
  total_samples : int;
  total_frames : int;  (** materialized acap records analyzed *)
  header_stats : site_headers list;  (** per site, by site name *)
  occurrence : (string * float) list;
      (** weighted % of frames containing each token, counted with
          multiplicity (nested Ethernet pushes "eth" above 100%, as in
          Fig. 12); sorted descending, tied percentages by token *)
  size_histogram : Netcore.Histogram.t;
      (** wire lengths over the paper's frame-size bins: 64 / 128 / 256
          / 512 / 1024 / 1519 / 2048 / 9000 byte boundaries *)
  per_site_size : (string * Netcore.Histogram.t) list;
  flows_per_sample : float array;
  flow_summaries : Flows.summary list;
  ipv6_percent : float;
  jumbo_fraction : float;  (** frames longer than 1518 bytes *)
}

module Builder : sig
  type profile := t
  type t

  val create : ?log:Patchwork.Logging.t -> unit -> t
  (** With [log], samples whose [materialized_fraction <= 0.0] (which
      can only be absorbed unweighted) log a warning; they always bump
      [analysis_unweighted_samples_total{stage="profile"}]. *)

  val add_report :
    ?pool:Parallel.Pool.t ->
    ?flow_store:Flow_store.Writer.t ->
    t ->
    Patchwork.Coordinator.occasion_report ->
    unit
  (** Digest and absorb one occasion; safe to drop the report (and its
      samples) afterwards.  Each sample is counted into one exact shard
      (integer counts per flow, per stack list, per size bin and over
      the jumbo line).  A sample that carries a pcap is folded, not
      materialized, as {!of_pcap} folds a capture; a sample without
      one has its in-line records counted, as {!of_records} counts
      them.  Each count is added to the profile's floats once, scaled
      by the sample's weight, in sample order — the arithmetic of
      [Flows.merge].  Exact counts do not depend on record
      order, and with a pool the per-sample digestion and counting run
      across domains, so the finished profile is identical to a
      sequential build.  With [flow_store], each sample's flow shard is
      also appended to the store as one weighted group, which is how the
      weekly service streams flows to disk at occasion boundaries; the
      store's [query] then returns the profile's [flow_summaries] bit
      for bit. *)

  val finish : t -> profile
end

val of_reports :
  ?pool:Parallel.Pool.t -> Patchwork.Coordinator.occasion_report list -> t
(** Convenience wrapper over {!Builder} for small report sets. *)

val of_pcap : bytes -> t
(** The profile of one capture (classic pcap or pcapng) at weight 1:
    {!Digest.fold_pcap} dissects it frame by frame into one reused
    accumulator and each frame is counted from there, so no record or
    record list is built.  A capture is no sample: [occasions] and
    [total_samples] are 0, [flows_per_sample] is empty, and
    [header_stats] holds one row, for the site [""].  Raises what
    {!Digest.fold_pcap} raises on a malformed capture. *)

val of_records : Dissect.Acap.record list -> t
(** The profile of one record list at weight 1, counted as an in-line
    sample's records are; otherwise as {!of_pcap}.  For any capture
    [buf], [of_records (Digest.pcap_to_acaps buf)] is {!equal} to
    [of_pcap buf]. *)

val occurrence_of : (string * float) list -> string -> float
(** A token's percentage in an [occurrence] table; 0 if absent. *)

val equal : t -> t -> bool
(** Structural equality over the whole profile — every aggregate,
    histogram bin and flow summary.  The pipelined weekly service and
    the parallel builders are required to produce profiles [equal] to
    their sequential counterparts. *)

val write_csv_files : t -> dir:string -> string list
(** Emit the Process-step CSVs into [dir]; returns the file names
    written. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable overview (the §8.2 numbers). *)
