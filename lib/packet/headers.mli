(** Protocol header descriptions.

    A frame is modelled as a stack of typed headers (outermost first)
    followed by an opaque payload.  The set of protocols mirrors what
    Patchwork observed on FABRIC: Ethernet with VLAN/MPLS/PseudoWire
    virtualization tags, IPv4/IPv6, TCP/UDP/ICMP/ARP, a VXLAN
    encapsulation, and application-layer protocols that Wireshark-style
    dissection classifies by well-known port. *)

type tcp_flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
  ece : bool;
  cwr : bool;
}

val flags_none : tcp_flags
val flags_ack : tcp_flags
val flags_psh_ack : tcp_flags

type ethernet = { src : Netcore.Mac.t; dst : Netcore.Mac.t }
type vlan = { pcp : int; dei : bool; vid : int }
type mpls = { label : int; tc : int; ttl : int }

type ipv4 = {
  src : Netcore.Ipv4_addr.t;
  dst : Netcore.Ipv4_addr.t;
  dscp : int;
  ttl : int;
  ident : int;
  dont_fragment : bool;
}

type ipv6 = {
  src : Netcore.Ipv6_addr.t;
  dst : Netcore.Ipv6_addr.t;
  traffic_class : int;
  flow_label : int;
  hop_limit : int;
}

type tcp = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : tcp_flags;
  window : int;
}

type udp = { src_port : int; dst_port : int }
type icmp = { icmp_type : int; icmp_code : int }

type arp = {
  operation : [ `Request | `Reply ];
  sender_mac : Netcore.Mac.t;
  sender_ip : Netcore.Ipv4_addr.t;
  target_mac : Netcore.Mac.t;
  target_ip : Netcore.Ipv4_addr.t;
}

type header =
  | Ethernet of ethernet
  | Vlan of vlan
  | Mpls of mpls
  | Pseudowire  (** 4-byte all-zero PW control word; followed by Ethernet *)
  | Ipv4 of ipv4
  | Ipv6 of ipv6
  | Tcp of tcp
  | Udp of udp
  | Icmpv4 of icmp
  | Icmpv6 of icmp
  | Arp of arp
  | Vxlan of { vni : int }  (** over UDP 4789; followed by inner Ethernet *)
  | Tls of { content_type : int }  (** 5-byte TLS record header *)
  | Ssh  (** protocol version banner *)
  | Http of [ `Request | `Response ]  (** request/status line prefix *)
  | Dns of { query : bool; id : int }  (** 12-byte DNS header *)
  | Ntp  (** 48-byte NTPv4 header *)
  | Quic  (** QUIC long header prefix *)

val size : header -> int
(** Encoded size of a header in bytes. *)

val name : header -> string
(** Short lowercase protocol token, e.g. ["ipv4"], ["mpls"], ["tls"].
    These tokens are shared with the dissector and the analysis
    pipeline. *)

val ethertype_for : header -> int
(** EtherType announcing [header] as the next layer after
    Ethernet/VLAN.  Raises [Invalid_argument] for layers that cannot
    directly follow Ethernet. *)

val ip_protocol_for : header -> int
(** IP protocol number announcing [header] after IPv4/IPv6. *)

(** {2 Wire constants shared with the codec and dissector} *)

val ssh_banner : string
val http_request_line : string
val http_response_line : string
val quic_header_len : int
