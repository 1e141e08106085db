(** Wire encoding of frames.

    A frame encodes to its exact on-the-wire byte sequence (without the
    Ethernet FCS, matching what pcap captures contain): big-endian
    fields, correct EtherType/protocol chaining, IPv4/TCP/UDP checksums,
    and zero padding up to the 60-byte Ethernet minimum.  The opaque
    payload is all zero bytes.  The dissector ({!Dissect}) is the
    inverse of this encoding, and the two are tested against each other
    by round-trip properties.

    The encoder stops at a byte limit, as a capture stops at its snap
    length: it writes the header stack and then zeros only up to the
    limit.  Checksums stay exact without the rest of the frame because
    the payload is all zeros, and zeros add nothing to a ones'-complement
    sum, so each TCP/UDP checksum is summed over header bytes alone.  A
    payload of any other bytes would need them all to be summed. *)

val encode : ?limit:int -> Frame.t -> bytes
(** The first [min limit (Frame.wire_length frame)] bytes of the frame's
    encoding.  [limit] defaults to the wire length, so [encode frame] is
    the whole frame. *)

val encode_into : Netcore.Wire.Writer.t -> limit:int -> Frame.t -> unit
(** Append what [encode ~limit frame] returns to the writer, so that a
    writer emptied and reused per frame allocates nothing
    payload-sized.  Raises [Invalid_argument] on a negative [limit]. *)
