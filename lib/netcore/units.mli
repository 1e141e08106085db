(** Unit conversions between bit rates and frame rates.

    Throughout the code base, rates are bits per second ([float]) and
    sizes are bytes ([int] or [float]); this module keeps the
    conversions in one place. *)

val pps_of_bps : float -> frame_bytes:int -> float
(** Packets per second carried by a bit rate, accounting for Ethernet
    per-frame overhead (preamble + IFG + FCS = 24 bytes) on the wire. *)

val bps_of_pps : float -> frame_bytes:int -> float
(** Inverse of {!pps_of_bps}. *)
