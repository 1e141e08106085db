(** Well-known service catalog.

    tshark classifies the payload above TCP/UDP by well-known port and
    counts it as another header — the paper's Fig. 11 counts those
    service layers among the "distinct headers" seen per site.  This
    catalog maps ports to service tokens for the same purpose.  It also
    serves as the palette from which the traffic generator draws
    application protocols. *)

type l4 = Tcp | Udp

type service = { service_name : string; port : int; l4 : l4 }

val catalog : service array
(** All known services, unique per (port, l4). *)

val lookup : l4 -> src_port:int -> dst_port:int -> service option
(** Service matching either port (destination takes precedence; on one
    port the first catalog entry wins; a port outside 0-65535 matches
    nothing).  It allocates nothing: the digest calls it once per
    frame. *)

val lookup_index : l4 -> src_port:int -> dst_port:int -> int
(** The {!catalog} index of {!lookup}'s service, or -1 for none. *)

val by_name : string -> service option
