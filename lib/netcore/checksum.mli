(** The Internet checksum (RFC 1071), used by IPv4, TCP, UDP and
    ICMP. *)

val ones_complement_sum : bytes -> pos:int -> len:int -> int
(** 16-bit one's-complement sum of a byte range (odd trailing byte is
    padded with zero, as per the RFC), folded to at most 0xFFFF. *)

val finish : int -> int
(** One's-complement of a running sum, folded to 16 bits.  Sums add
    before it: a TCP or UDP checksum is
    [finish (pseudo + ones_complement_sum ...)], since two non-negative
    sums congruent modulo 0xFFFF fold to the same 16 bits. *)
