(** The Alveo FPGA offload pipeline.

    Patchwork compiles a P4 program onto the FPGA NIC that samples and
    truncates frames at line rate before the host ever sees them; the
    DPDK application then only serializes what survives.  The user's
    filter and anonymization are not part of this config: the capture
    applies [Config.filter] and [Config.anonymize] to every capture
    method alike.  The functional half of this module gives the
    offload's verdict on each frame; the performance half quantifies
    the host-side relief (frames and bytes removed before the DPDK
    path).

    The verdict is a stride counter, not a run of the compiled program:
    the program {!P4_pipeline.Compile.of_filter} builds for this config
    (filter [True]) forwards every Nth frame, and the capture tests
    check the counter against it. *)

type config = {
  sample_1_in : int;  (** keep one frame in N (1 = keep all) *)
  truncation : int;  (** bytes forwarded to the host per frame *)
}

val default_config : config
(** Keep everything, truncate to 200 bytes. *)

type stats = {
  seen : int;
  sampled : int;  (** frames surviving sampling *)
  bytes_in : int;  (** wire bytes presented to the FPGA *)
  bytes_out : int;  (** bytes actually delivered to the host *)
}

val create : config -> unit -> (Packet.Frame.t -> bool) * (unit -> stats)
(** [create config ()] returns the offload's verdict, [true] when it
    forwards a frame to the host, and a stats accessor.  Sampling is
    systematic: it forwards the 0th, Nth, 2Nth, ... frame it sees, and
    [bytes_out] sums [min wire truncation] over them. *)

val host_relief : config -> offered_pps:float -> avg_frame_size:float -> float * float
(** [(pps, bytes_per_sec)] that reach the host after offload, given the
    load the capture's filter passes to it. *)

val host_path : Obs.Ledger.host_path
(** This path's identity ([Fpga]) in the loss-attribution ledger. *)
