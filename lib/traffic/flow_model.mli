(** Flow specifications and frame materialization.

    A flow is described by a header-stack template, a wire-frame-size
    distribution and an average byte rate over a lifetime.  The switch
    model only needs the rates; actual frames are materialized lazily,
    and only for the time windows in which a capture is running — this
    is what makes year-scale simulations affordable.  The capture goes
    one step further and builds no frame per draw ({!iter_draws}): one
    frame per flow class, and pcap records stamped from its encoded
    headers ({!stamp_draw}).  No library path builds a frame per draw;
    the tests keep that per-frame materialization as the capture's
    oracle. *)

type spec = {
  flow_id : int;
  template : Packet.Headers.header list;
      (** validated stack; per-frame fields (IPv4 ident, TCP seq) are
          randomized at materialization time *)
  frame_size : Netcore.Dist.t;  (** wire length distribution, bytes *)
  avg_frame_size : float;
  byte_rate : float;  (** average bytes per second on the wire *)
  start_time : float;
  duration : float;
  subflows : int;
      (** when > 1, the spec stands for an aggregate of that many
          distinct 5-tuples (a swarm of mice); materialized frames are
          spread across per-subflow address/port variants.  This keeps
          the switch model cheap (one attachment) while letting a 20 s
          sample observe thousands of distinct flows, as in Fig. 13. *)
}

val make :
  flow_id:int ->
  template:Packet.Headers.header list ->
  frame_size:Netcore.Dist.t ->
  avg_frame_size:float ->
  byte_rate:float ->
  start_time:float ->
  duration:float ->
  ?subflows:int ->
  unit ->
  spec
(** Validates the template stack; raises [Invalid_argument] if it is
    malformed or if rates/durations are negative.  [subflows] defaults
    to 1. *)

val frame_rate : spec -> float
(** Average frames per second ([byte_rate / avg_frame_size]). *)

val end_time : spec -> float

val iter_draws :
  spec ->
  Netcore.Rng.t ->
  start_time:float ->
  end_time:float ->
  (index:int -> ts:float -> wire_len:int -> subflow:int -> unit) ->
  unit
(** The random draws behind the frames the flow emits during the
    overlap of its lifetime with the window, without building a frame:
    a Poisson count at the flow's frame rate, then per frame in
    timestamp order its wire length (drawn from [frame_size], clamped to
    what the header stack permits and to the 9000-byte jumbo MTU) and
    its subflow (0 when [subflows] = 1).  [index] is the frame's
    position in the window.  Everything but [index], [ts] and
    [wire_len] of a frame is a function of (spec, subflow): the frames
    of one subflow differ only in IPv4 ident and TCP seq. *)

val draw_frame : spec -> index:int -> wire_len:int -> subflow:int -> Packet.Frame.t
(** The frame of one draw; its wire length is [wire_len]. *)

val stamp_draw :
  Packet.Pcap.Writer.t ->
  ts:float ->
  Packet.Codec.template ->
  index:int ->
  wire_len:int ->
  unit
(** Append the pcap record of draw [index], of [wire_len] bytes, of the
    flow class (spec, subflow) whose frame at index 0 compiled to the
    template ([Codec.template] of [draw_frame ~index:0], anonymized or
    not).  The template is stamped with how far the draw advances the
    class's per-frame fields: every IPv4 ident by [index] and the TCP
    seq by [index * (payload + 1)], as {!draw_frame} does.  So the record
    holds the bytes of the draw's own frame, anonymized alike, and no
    frame is built. *)

val expected_frames : spec -> start_time:float -> end_time:float -> float
(** Mean of the count of draws {!iter_draws} makes. *)
