(** Wireshark-style protocol dissection of wire bytes.

    This is the inverse of {!Packet.Codec.encode}: it reconstructs the
    header stack from raw bytes.  As in the paper's Digest step
    (which uses Wireshark/tshark dissectors), application layers are
    classified by well-known layer-4 port and then verified against
    their wire syntax where possible (TLS record header, SSH banner,
    HTTP method/status line on port 80 or 8080, a DNS header with a
    question or an answer, QUIC long header).  Bytes no classifier
    takes are payload, so the abstract record names the service by
    port alone, as it names the generator's template.

    One walk ({!walk}) decides which headers a frame has.  It reads the
    frame where it sits in the capture buffer and reports each header
    it accepts onto a reusable {!Tape}: the header's kind, its byte
    offset and the few fields the digest abstracts, so a digest fold
    dissects frame after frame without allocating.  {!dissect} and
    {!dissect_slice} read a tape back into typed headers.

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

(** The headers the walk accepts, one per {!Packet.Headers.header}
    constructor ([Http] stands for both of its lines). *)
type kind =
  | Eth
  | Vlan
  | Mpls
  | Pw
  | Ipv4
  | Ipv6
  | Tcp
  | Udp
  | Icmpv4
  | Icmpv6
  | Arp
  | Vxlan
  | Tls
  | Ssh
  | Http
  | Dns
  | Ntp
  | Quic

val kind_index : kind -> int
(** The kind's place in the declaration above, from 0. *)

val kind_names : string array
(** By {!kind_index}: the token {!Packet.Headers.name} gives the
    kind's header, e.g. ["eth"], ["ipv4"]. *)

(** One frame's headers, outermost first, overwritten by each {!walk}.
    Its fields are read in place; only the walk writes them.  Header
    [i] ([i < length]) is of kind [kinds.(i)] and starts at byte
    [offs.(i)] of [bytes]; [a.(i)] and [b.(i)] hold the fields the
    digest reads of it: a VLAN tag's vid in [a], an MPLS entry's label,
    TCP and UDP ports (source in [a], destination in [b]), a VXLAN
    header's VNI, a TLS record's content type, and an HTTP line's
    direction (0 a request, 1 a response).  Every other field is read
    from [bytes] at the header's offset. *)
module Tape : sig
  type t = private {
    mutable bytes : bytes;  (** the buffer the frame was read from *)
    mutable length : int;  (** headers on the tape *)
    mutable kinds : kind array;
    mutable offs : int array;
    mutable a : int array;
    mutable b : int array;
    mutable payload_len : int;  (** as {!result}'s *)
    mutable truncated : bool;  (** as {!result}'s *)
  }

  val create : unit -> t
end

val walk : Tape.t -> bytes -> off:int -> cap_len:int -> orig_len:int -> unit
(** Dissect the [cap_len] captured bytes of a frame at [off] in the
    buffer, whose wire length was [orig_len], onto the tape.  Every
    read is bounded by those bytes; a frame outside the buffer raises
    [Invalid_argument]. *)

val dissect : bytes -> result
(** Dissect a whole frame: its wire length is the buffer's. *)

val dissect_slice : orig_len:int -> Packet.Slice.t -> result
(** Dissect a captured record in place, never copying the underlying
    capture buffer.  [orig_len] is the original wire length, as
    recorded in pcap; the slice holds its first bytes when the capture
    was snapped.  On a whole frame it produces what {!dissect} does on
    a copy of the viewed bytes. *)
