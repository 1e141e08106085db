(** One capture sample on a mirrored port.

    A sample covers [sample_duration] seconds of the traffic crossing a
    mirror session.  The switch may already be dropping mirrored frames
    (combined Tx+Rx above the egress line rate); the capture host then
    loses more if the offered rate exceeds its capture method's
    capacity.  What survives is materialized into abstract capture
    records (and optionally real pcap bytes), after the configured
    filter, FPGA pre-processing and anonymization, every frame cut at
    the one snap length [Config.truncation]. *)

(** The whole-sample loss split recorded into the attribution ledger:
    every offered frame/byte lands in exactly one bucket — stored, or
    one of the loss causes — so [offered = stored + Σ attributed] holds
    by construction (within the ledger's relative tolerance).  Offered
    and stored bytes are {e wire} bytes: truncation appears as a
    bytes-only cause and pcap record headers are excluded.  The frames
    the FPGA offload's stride skips are the [Sampled] cause. *)
type breakdown = {
  b_offered_frames : float;
  b_offered_bytes : float;
  b_switch_dropped : float;
  b_host_dropped : float;
  b_captured_frames : float;  (** stored frames *)
  b_host_keep : float;
      (** fraction of the frames forwarded past the switch (and the
          offload's stride) that the host keeps *)
  b_stored_wire_bytes : float;
  b_causes : (Obs.Ledger.cause * float * float) list;
      (** (cause, frames, bytes); zero-amount entries included *)
}

type stats = {
  loss : breakdown;
      (** the sample's loss split, as the ledger records it: offered,
          switch and host drops, captured frames and their causes *)
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
      (** materialized records in timestamp order, possibly a uniform
          thinning.  The records of one flow class (spec, subflow) are
          stamps of the record of its template's header bytes and share
          its lists, strings and flow key ({!materialize}). *)
  materialized_fraction : float;
      (** fraction of captured frames materialized into [acaps] *)
  pcap : bytes option;
      (** real pcap bytes when [emit_pcap]: the frames of [acaps], in
          their order, snapped to [truncation] bytes with microsecond
          timestamps.  The buffer the capture stamped them into, sized
          exactly, handed over without a copy. *)
  stats : stats;
}

val loss_breakdown :
  offered_pps:float ->
  duration:float ->
  avg_frame_size:float ->
  switch_drop_frac:float ->
  congested:bool ->
  capacity_pps:float ->
  truncation:int ->
  sample_1_in:int ->
  host_path:Obs.Ledger.host_path ->
  breakdown
(** Pure, so the conservation property is testable over adversarial
    parameters without a fabric.  Switch loss is attributed to
    [Mirror_congestion] when [congested], else [Switch_drop].  Of the
    frames past the switch the FPGA offload forwards one in
    [sample_1_in] (1 for tcpdump and DPDK); the rest, and their wire
    bytes, are [Sampled].  The host keeps the share of the forwarded
    frames that [capacity_pps] (stated in frames the offload is shown)
    allows, and the rest are [Host_drop]. *)

type materialized = {
  records : Dissect.Acap.record list;
      (** sorted by timestamp; equal times come latest-generated first *)
  pcap : bytes option;  (** with [emit_pcap]: the records' frames, in their order *)
  classes : int;  (** flow classes abstracted *)
}

val materialize :
  config:Config.t ->
  rng:Netcore.Rng.t ->
  fraction:float ->
  start_time:float ->
  end_time:float ->
  Traffic.Flow_model.spec list ->
  materialized
(** The frames a sample keeps from [specs] over the window, each spec's
    rate scaled by [fraction], after the configured filter, FPGA
    sampling and anonymization — as records and, with [emit_pcap],
    pcap bytes.  The draws come from {!Traffic.Flow_model.iter_draws},
    spec by spec.

    A record is a pure function of its draw's (spec, subflow) plus
    timestamp and wire length, so each class builds one frame, at
    index 0 when its first draw comes.  The filter decides each draw on
    that class frame, with the draw's own wire length.  The FPGA
    offload's verdict ({!Hostmodel.Fpga_path.create}) reads no frame:
    it counts the draws the filter has passed it.  The class frame's
    anonymized copy is compiled to a {!Packet.Codec.template}, and the
    class record is what {!Dissect.Acap.Fields.dissect} reads off the
    template's header bytes ({!Packet.Codec.headers}), walked whole;
    every draw's record is a stamp of it.  With [emit_pcap], once the
    draws are merged into the records' order, each kept draw's pcap
    record is stamped from the template
    ({!Traffic.Flow_model.stamp_draw}) into one buffer, reserved at the
    file's exact size: 24 bytes plus, per record, 16 and
    [min truncation wire_len].  No frame is built per draw.  Records
    and pcap bytes are bit-identical to the tests' per-frame reference
    ([Oracle.materialize_per_frame], which builds, abstracts and
    encodes every draw's frame), and the RNG is left in the same
    state. *)

val method_capacity_pps : Config.t -> float
(** Frames per second the configured capture method is shown before
    the host drops: the kernel path's, or the DPDK path's at [cores]
    and the snap length.  Behind the FPGA offload the DPDK path sees
    one frame in [sample_1_in], so its capacity scales up by
    [sample_1_in]. *)

val run :
  fabric:Testbed.Fablib.t ->
  resolver:(int -> Traffic.Flow_model.spec option) ->
  config:Config.t ->
  rng:Netcore.Rng.t ->
  site:string ->
  mirror:int ->
  mirrored_port:int ->
  sample
(** Capture one sample starting now (the engine's current time is the
    sample start; the traffic state is read at that instant).

    The sample's loss split ([stats.loss]) is folded into
    [Obs.Ledger.default] while the ledger is enabled; the ledger is the
    one account of loss, per site and cause.  The registry's aggregate
    [capture_frames_total], [capture_stored_bytes_total] and
    [capture_congestion_samples_total] count what was kept (after the
    offload's stride), and
    [capture_records_total] and [capture_classes_total] count its
    {!materialize} work. *)
