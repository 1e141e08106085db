(** Prefix-preserving address anonymization (Crypto-PAn style).

    Patchwork supports close-to-source pre-processing such as blanking
    or transforming addresses before captures leave the testbed.  This
    implements a keyed, deterministic, prefix-preserving permutation of
    IPv4 (and the high halves of IPv6) addresses: two addresses sharing
    exactly a [k]-bit prefix map to outputs sharing exactly a [k]-bit
    prefix, so subnet structure survives anonymization while actual
    addresses do not. *)

type t

val create : key:int -> t

val ipv4 : t -> Netcore.Ipv4_addr.t -> Netcore.Ipv4_addr.t

val frame : t -> Packet.Frame.t -> Packet.Frame.t
(** Rewrite every IP address in the frame's headers (including ARP
    sender/target addresses).  The stack structure is unchanged. *)
