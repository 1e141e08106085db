(** Frames: a stack of headers plus an opaque payload length.

    The stack is ordered outermost-first, e.g.
    [Ethernet; Vlan; Mpls; Pseudowire; Ethernet; Ipv4; Tcp; Tls]. *)

type t = { headers : Headers.header list; payload_len : int }

val make : Headers.header list -> payload_len:int -> t
(** Builds a frame after checking stack well-formedness with
    {!validate}; raises [Invalid_argument] if the stack is malformed. *)

val validate : Headers.header list -> (unit, string) result
(** Checks layering rules: frames start with Ethernet; VLAN follows
    Ethernet/VLAN; MPLS follows Ethernet/VLAN/MPLS; PseudoWire follows
    MPLS and precedes Ethernet; IP follows Ethernet/VLAN/MPLS; L4
    follows IP; application layers follow TCP/UDP; VXLAN follows UDP and
    precedes Ethernet. *)

val min_wire_size : int
(** 60 bytes: minimum Ethernet frame without FCS. *)

val wire_length : t -> int
(** On-the-wire length in bytes (headers + payload, padded to
    {!min_wire_size}). *)

val header_size_total : t -> int

val vlan_ids : t -> int list
(** All VLAN ids, outermost first. *)

val mpls_labels : t -> int list
(** All MPLS labels, outermost first. *)

val tokens : t -> string list
(** Protocol token of every header, outermost first. *)
