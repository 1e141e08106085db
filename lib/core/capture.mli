(** One capture sample on a mirrored port.

    A sample covers [sample_duration] seconds of the traffic crossing a
    mirror session.  The switch may already be dropping mirrored frames
    (combined Tx+Rx above the egress line rate); the capture host then
    loses more if the offered rate exceeds its capture method's
    capacity.  What survives is materialized into abstract capture
    records (and optionally real pcap bytes), after the configured
    filter, FPGA pre-processing and anonymization. *)

type stats = {
  offered_frames : float;  (** frames the mirror tried to clone *)
  switch_dropped : float;  (** lost at the switch egress queue *)
  host_dropped : float;  (** lost by the capture path *)
  captured_frames : float;  (** modeled count that reached storage *)
  stored_bytes : float;  (** pcap bytes written (with record headers) *)
  flow_estimate : float;
      (** expected number of distinct flows observable in this sample,
          derived from the attached flows and their subflow fan-out *)
  congestion_detected : bool;
      (** Patchwork's telemetry-based inference that the mirror is
          overloaded (requirement R3) *)
}

type sample = {
  sample_site : string;
  sample_port : int;  (** the mirrored port *)
  sample_start : float;
  sample_duration : float;
  acaps : Dissect.Acap.record list;
      (** materialized records, possibly a uniform thinning *)
  materialized_fraction : float;
      (** fraction of captured frames materialized into [acaps] *)
  pcap : bytes option;
      (** real pcap bytes when [emit_pcap]: the same frames as [acaps]
          but snapped to [truncation] bytes with microsecond timestamps,
          so digesting them yields a different profile from [acaps] *)
  stats : stats;
}

(** The whole-sample loss split recorded into the attribution ledger:
    every offered frame/byte lands in exactly one bucket — stored, or
    one of the loss causes — so [offered = stored + Σ attributed] holds
    by construction (within the ledger's relative tolerance).  Offered
    and stored bytes are {e wire} bytes: truncation appears as a
    bytes-only cause and pcap record headers are excluded. *)
type breakdown = {
  b_offered_frames : float;
  b_offered_bytes : float;
  b_switch_dropped : float;
  b_host_dropped : float;  (** total host loss, throttling included *)
  b_captured_frames : float;
  b_stored_wire_bytes : float;
  b_causes : (Obs.Ledger.cause * float * float) list;
      (** (cause, frames, bytes); zero-amount entries included *)
}

val loss_breakdown :
  offered_pps:float ->
  duration:float ->
  avg_frame_size:float ->
  switch_drop_frac:float ->
  congested:bool ->
  capacity_pps:float ->
  throttle:float ->
  truncation:int ->
  host_path:Obs.Ledger.host_path ->
  breakdown
(** Pure, so the conservation property is testable over adversarial
    parameters without a fabric.  Switch loss is attributed to
    [Mirror_congestion] when [congested], else [Switch_drop]; host loss
    beyond the unthrottled capacity split goes to
    [Page_cache_throttle]. *)

val run :
  ?page_cache:Hostmodel.Page_cache.t ->
  fabric:Testbed.Fablib.t ->
  resolver:(int -> Traffic.Flow_model.spec option) ->
  config:Config.t ->
  rng:Netcore.Rng.t ->
  site:string ->
  mirror:int ->
  mirrored_port:int ->
  unit ->
  sample
(** Capture one sample starting now (the engine's current time is the
    sample start; the traffic state is read at that instant).

    When [page_cache] is given, the sample's keep rate is paced by the
    cache's current {!Hostmodel.Page_cache.throttle_factor} and the
    sample's stored bytes are written into (and drained from) the
    cache.  The sample's loss split is folded into
    [Obs.Ledger.default] while the ledger is enabled. *)
