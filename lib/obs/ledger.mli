(** Capture-loss attribution ledger.

    Per-site × per-occasion accounting of every frame and byte the
    capture path failed to store, attributed to exactly one cause, with
    the conservation invariant

    {v offered = stored + Σ attributed v}

    (frames and bytes independently) checked when the occasion closes.
    A violation bumps [ledger_conservation_violations_total], is
    reported through the close log hook, and raises
    {!Conservation_violation} under {!set_strict} — the test suite runs
    strict so an attribution leak hard-fails.

    Each (site, cause) cell keeps a deterministic reservoir of up to K
    exemplar flow keys for drill-down into [Analysis.Flow_store]: every
    candidate key gets a SplitMix64-mixed priority seeded from
    site + occasion start, and the cell retains the K unsigned-smallest.
    The selection is a pure function of the candidate key {e set}, so
    pool size, shard interleaving and insertion order cannot change the
    exemplars. *)

type host_path = Kernel | Dpdk | Fpga

type cause =
  | Mirror_congestion  (** switch mirror egress over line rate *)
  | Switch_drop  (** uncongested mirror-port loss *)
  | Host_drop of host_path  (** capture host could not keep up *)
  | Truncated  (** bytes beyond the snap length (bytes-only cause) *)
  | Sampled
      (** frames the FPGA offload's 1-in-N stride skips.  Like
          [Truncated], a cause by design, not loss *)

val all_causes : cause list
(** Every cause, host paths expanded; fixed order used by reports. *)

val cause_label : cause -> string
(** Stable label ([mirror_congestion], [host_drop_kernel], ...) used in
    registry label values, series and JSON. *)

val tolerance : float
(** Relative conservation tolerance ([1e-6], against
    [max 1.0 offered]). *)

(** {1 Process-wide switches} *)

val enabled : unit -> bool
(** Ledger recording switch (default on); the capture-path call sites
    check it so a disabled ledger costs nothing. *)

val set_enabled : bool -> unit

val strict : unit -> bool
(** When strict (default off), a conservation violation at
    {!close_occasion} raises {!Conservation_violation}.  The test runner
    turns this on. *)

val set_strict : bool -> unit

exception Conservation_violation of string

(** {1 Ledger} *)

type t

val create : unit -> t
(** A fresh ledger: K = 5 exemplars per cell, and the newest 64 closed
    occasions retained (the oldest evicted). *)

val default : t
(** The process-wide ledger the capture path writes into. *)

val begin_occasion : t -> at:float -> unit
(** Reset the in-flight accumulation and seed exemplar priorities from
    [at] (the occasion's start on the simulated axis). *)

val record_sample :
  t ->
  site:string ->
  offered_frames:float ->
  offered_bytes:float ->
  stored_frames:float ->
  stored_bytes:float ->
  ?keys:string list ->
  (cause * float * float) list ->
  unit
(** Fold one capture sample into the in-flight occasion: offered/stored
    totals plus per-cause [(cause, frames, bytes)] losses.  Zero-amount
    causes are skipped; [keys] are exemplar candidates offered to every
    cell the sample touches. *)

(** {1 Closing and reading} *)

type site_entry = {
  e_site : string;
  e_offered_frames : float;
  e_offered_bytes : float;
  e_stored_frames : float;
  e_stored_bytes : float;
  e_causes : (cause * float * float * string list) list;
      (** (cause, frames, bytes, exemplar keys); only touched cells,
          in {!all_causes} order. *)
  e_frames_residual : float;  (** offered - stored - Σ attributed *)
  e_bytes_residual : float;
  e_conserved : bool;
}

type occasion_entry = {
  o_seq : int;  (** 0-based close sequence number *)
  o_start : float;
  o_sites : site_entry list;  (** sorted by site name *)
}

val close_occasion : ?log:(string -> unit) -> t -> occasion_entry
(** Seal the in-flight occasion: check conservation per site, emit the
    cumulative [ledger_*_total] counters into [Registry.default], append
    the entry to the bounded history, and clear the accumulation.  Each
    violating site is logged through [log] and counted; under strict
    mode the first violation raises {!Conservation_violation} (after
    counters and history are written). *)

val history : t -> occasion_entry list
(** Retained closed occasions, oldest first. *)

val reset : t -> unit
(** Drop history, in-flight state and the sequence counter (tests). *)

val to_json : ?site:string -> ?occasion:int -> t -> Export.Json.t
(** The [/lossmap.json] payload over {!history}: [{ "tolerance",
    "occasions": [{ "seq", "start", "sites": [...] }] }], optionally
    filtered to one site and/or one occasion sequence number. *)

(** {1 Deterministic exemplar primitives} (exposed for property tests) *)

val seed_for : site:string -> at:float -> int64
val priority : seed:int64 -> string -> int64
