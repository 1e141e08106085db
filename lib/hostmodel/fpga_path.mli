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
    the program Patchwork compiles for this config (filter [True], a
    1-in-N sampler, a truncating editor) forwards every Nth frame it is
    shown, whatever the frame holds.  The tests keep that match-action
    program as the counter's oracle. *)

type config = {
  sample_1_in : int;  (** keep one frame in N (1 = keep all) *)
  truncation : int;  (** bytes forwarded to the host per frame *)
}

val default_config : config
(** Keep everything, truncate to 200 bytes. *)

val create : config -> unit -> bool
(** [create config] is the offload's verdict on the next frame it is
    shown, [true] when it forwards that frame to the host: it forwards
    the 0th, Nth, 2Nth, ... frame, [min wire truncation] bytes of each.
    Raises [Invalid_argument] if [sample_1_in < 1]. *)

val host_relief : config -> offered_pps:float -> avg_frame_size:float -> float * float
(** [(pps, bytes_per_sec)] that reach the host after offload, given the
    load the capture's filter passes to it. *)

val host_path : Obs.Ledger.host_path
(** This path's identity ([Fpga]) in the loss-attribution ledger. *)
