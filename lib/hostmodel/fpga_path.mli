(** The Alveo FPGA offload pipeline.

    Patchwork compiles a P4 program onto the FPGA NIC that samples and
    truncates frames at line rate before the host ever sees them; the
    DPDK application then only serializes what survives.  Its one knob
    is its stride: it cuts at the capture's one snap length
    ([Config.truncation]), and the capture applies the user's filter
    and anonymization to every capture method alike.  The functional
    half of this module gives the offload's verdict on each frame; the
    performance half quantifies the host-side relief (frames and bytes
    removed before the DPDK path).

    The verdict is a stride counter, not a run of the compiled program:
    the program Patchwork compiles for a capture (filter [True], a
    1-in-N sampler, a truncating editor) forwards every Nth frame it is
    shown, whatever the frame holds.  The tests keep that match-action
    program as the counter's oracle. *)

val create : sample_1_in:int -> unit -> bool
(** [create ~sample_1_in] is the offload's verdict on the next frame it
    is shown, [true] when it forwards that frame to the host: it
    forwards the 0th, Nth, 2Nth, ... frame.  Raises [Invalid_argument]
    if [sample_1_in < 1]. *)

val host_relief :
  sample_1_in:int -> truncation:int -> offered_pps:float -> avg_frame_size:float ->
  float * float
(** [(pps, bytes_per_sec)] that reach the host after offload, given the
    load the capture's filter passes to it: one frame in [sample_1_in],
    [min truncation avg_frame_size] bytes of each. *)

val host_path : Obs.Ledger.host_path
(** This path's identity ([Fpga]) in the loss-attribution ledger. *)
