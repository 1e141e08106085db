(** Wireshark-style protocol dissection of wire bytes.

    This is the inverse of {!Packet.Codec.encode}: it reconstructs the
    typed header stack from raw bytes.  As in the paper's Digest step
    (which uses Wireshark/tshark dissectors), application layers are
    classified by well-known layer-4 port and then verified against
    their wire syntax where possible (TLS record header, SSH banner,
    HTTP method/status line, QUIC long header).

    Dissection is tolerant of snap-length truncation: a header that runs
    past the end of the captured bytes terminates dissection and marks
    the result truncated, which is the normal case for Patchwork's
    200-byte captures. *)

type result = {
  headers : Packet.Headers.header list;  (** outermost first *)
  payload_len : int;
      (** opaque bytes after the last parsed header, within the extent
          declared by the innermost IP header (so Ethernet minimum-size
          padding is not counted for IP frames) *)
  truncated : bool;
      (** capture ended before the full packet: either a header was cut
          short or [orig_len] exceeds the captured bytes *)
}

val dissect : ?orig_len:int -> bytes -> result
(** Dissect a captured frame.  [orig_len] is the original wire length
    when the capture was snapped (as recorded in pcap); it defaults to
    the buffer length. *)

val dissect_slice : ?orig_len:int -> Packet.Slice.t -> result
(** Zero-copy flavour of {!dissect}: headers are read in place through
    the slice's bounds-checked cursor, never copying the underlying
    capture buffer.  Produces results identical to dissecting
    [Slice.to_bytes slice]. *)

val dissect_packet : Packet.Pcap.packet -> result
(** Convenience wrapper over a pcap record. *)
