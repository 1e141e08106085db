(** A complete network profile, assembled from profiling occasions.

    This is the artifact the whole system exists to produce: the
    testbed-wide picture of §8.2, with per-site breakdowns and the
    aggregate statistics the paper reports.

    A profile over many occasions does not fit in memory as raw records
    (the paper's captures ran to dozens of gigabytes), so {!Builder}
    folds occasions in one at a time, keeping only aggregates; each
    occasion's records are dropped as soon as they are absorbed. *)

type t = {
  occasions : int;
  total_samples : int;
  total_frames : int;  (** materialized acap records analyzed *)
  header_stats : Analyze.site_headers list;
  occurrence : (string * float) list;
      (** weighted % of frames containing each token *)
  size_histogram : Netcore.Histogram.t;
  per_site_size : (string * Netcore.Histogram.t) list;
  flows_per_sample : float array;
  flow_summaries : Flows.summary list;
  ipv6_percent : float;
  jumbo_fraction : float;
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
      the jumbo line), and each count is added to the profile's floats
      once, scaled by the sample's weight, in sample order — the
      arithmetic of [Flows.merge].  Exact counts do not depend on record
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
