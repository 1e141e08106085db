(** Wireshark-style protocol dissection of wire bytes.

    This is the inverse of {!Packet.Codec.encode}: it reconstructs the
    typed header stack from raw bytes.  As in the paper's Digest step
    (which uses Wireshark/tshark dissectors), application layers are
    classified by well-known layer-4 port and then verified against
    their wire syntax where possible (TLS record header, SSH banner,
    HTTP method/status line on port 80 or 8080, a DNS header with a
    question or an answer, QUIC long header).  Bytes no classifier
    takes are payload, so the abstract record names the service by
    port alone, as it names the generator's template.

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

val dissect : bytes -> result
(** Dissect a whole frame: its wire length is the buffer's. *)

val dissect_slice : orig_len:int -> Packet.Slice.t -> result
(** Dissect a captured record in place: headers are read through the
    slice's bounds-checked cursor, never copying the underlying capture
    buffer.  [orig_len] is the original wire length, as recorded in
    pcap; the slice holds its first bytes when the capture was snapped.
    On a whole frame it produces what {!dissect} does on a copy of the
    viewed bytes. *)
