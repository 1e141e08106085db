(** Wire encoding of frames.

    A frame encodes to its exact on-the-wire byte sequence (without the
    Ethernet FCS, matching what pcap captures contain): big-endian
    fields, correct EtherType/protocol chaining, IPv4/TCP/UDP checksums,
    and zero padding up to the 60-byte Ethernet minimum.  The opaque
    payload is all zero bytes.  The dissector ({!Dissect}) is the
    inverse of this encoding, and the two are tested against each other
    by round-trip properties.

    There is one encoder.  It compiles a frame's header stack into a
    {!template}: the header bytes, encoded once, and the offsets of the
    fields that differ between the frames of one flow (each IPv4 total
    length, ident and checksum, each IPv6 payload length, each UDP
    length and checksum, each TCP seq and checksum).  A {!stamp_into}
    then sets those fields for one frame, refills the checksums
    innermost first, so that an outer checksum (VXLAN's UDP) covers the
    final bytes of the headers inside it, and copies the bytes.
    {!encode_into} is a template stamped with no offsets, so a capture
    that stamps one template per flow writes the bytes this module
    encodes for every frame of the flow.

    The encoder stops at a byte limit, as a capture stops at its snap
    length: it writes the header stack and then zeros only up to the
    limit.  Checksums stay exact without the rest of the frame because
    the payload is all zeros, and zeros add nothing to a ones'-complement
    sum, so each TCP/UDP checksum is summed over header bytes alone.  A
    payload of any other bytes would need them all to be summed. *)

type template
(** A frame's header stack, encoded, with the offsets of the fields a
    stamp sets.  A stamp writes into the template's own bytes, so one
    template must not be stamped from two domains at once. *)

val template : Frame.t -> template
(** Compile a frame's headers; its payload length plays no part. *)

val header_length : template -> int
(** The encoded length of the headers. *)

val wire_length : template -> payload_len:int -> int
(** The wire length of the template's frame with [payload_len] payload
    bytes: headers and payload, padded to {!Frame.min_wire_size}. *)

val stamp_into :
  Netcore.Wire.Writer.t ->
  template ->
  ident:int ->
  seq:int ->
  payload_len:int ->
  limit:int ->
  unit
(** Append the first [min limit (wire_length t ~payload_len)] bytes of
    the template's frame with [payload_len] payload bytes, every IPv4
    ident advanced by [ident] (modulo 2{^16}) and every TCP seq by
    [seq] (modulo 2{^32}): the bytes {!encode} returns for that frame.
    Raises [Invalid_argument] on a negative [limit]. *)

val headers : template -> bytes
(** The template's own bytes, stamped for its frame with no payload and
    nothing advanced: their first {!header_length} bytes are that
    frame's headers as {!stamp_into} writes them, every length and
    checksum set.  Not a copy: the next stamp overwrites them. *)

val encode : ?limit:int -> Frame.t -> bytes
(** The first [min limit (Frame.wire_length frame)] bytes of the frame's
    encoding.  [limit] defaults to the wire length, so [encode frame] is
    the whole frame. *)

val encode_into : Netcore.Wire.Writer.t -> limit:int -> Frame.t -> unit
(** Append what [encode ~limit frame] returns to the writer: the
    frame's template stamped with no offsets.  Raises [Invalid_argument]
    on a negative [limit]. *)
