(** The Internet checksum (RFC 1071), used by IPv4, TCP, UDP and
    ICMP. *)

val ones_complement_sum : ?initial:int -> bytes -> pos:int -> len:int -> int
(** 16-bit one's-complement sum of a byte range (odd trailing byte is
    padded with zero, as per the RFC). *)

val finish : int -> int
(** One's-complement of a running sum, folded to 16 bits. *)
