(** The software (tcpdump) capture path.

    Patchwork's default capture method: tcpdump with its buffer raised
    to 32 MB.  Frames traverse the kernel network stack and are copied
    once per packet, so a single logical capture thread saturates around
    0.7 Mpps — about 8.5 Gbps of 1500-byte frames, which is the lossless
    bound the paper measured (§8.1.2). *)

type result = {
  offered_frames : float;
  captured_frames : float;
  dropped_frames : float;
  loss_percent : float;
  peak_buffer_used : float;  (** bytes of the 32 MB capture buffer *)
}

val run : offered_rate:float -> frame_size:int -> duration:float -> result
(** Capture fixed-size frames offered at [offered_rate] bits/s for
    [duration] seconds on the default {!Host_profile}, truncating each
    to 64 bytes.  Seeded, so a run repeats exactly. *)

val lossless_bound : frame_size:int -> float
(** Highest offered bit rate the default {!Host_profile}'s path
    captures without sustained loss. *)

val host_path : Obs.Ledger.host_path
(** This path's identity ([Kernel]) in the loss-attribution ledger. *)
