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

let flags_none =
  { syn = false; ack = false; fin = false; rst = false; psh = false;
    urg = false; ece = false; cwr = false }

let flags_ack = { flags_none with ack = true }
let flags_psh_ack = { flags_none with psh = true; ack = true }

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
  | Pseudowire
  | Ipv4 of ipv4
  | Ipv6 of ipv6
  | Tcp of tcp
  | Udp of udp
  | Icmpv4 of icmp
  | Icmpv6 of icmp
  | Arp of arp
  | Vxlan of { vni : int }
  | Tls of { content_type : int }
  | Ssh
  | Http of [ `Request | `Response ]
  | Dns of { query : bool; id : int }
  | Ntp
  | Quic

let ssh_banner = "SSH-2.0-OpenSSH_8.9\r\n"
let http_request_line = "GET / HTTP/1.1\r\n"
let http_response_line = "HTTP/1.1 200 OK\r\n"
let quic_header_len = 16

let size = function
  | Ethernet _ -> 14
  | Vlan _ -> 4
  | Mpls _ -> 4
  | Pseudowire -> 4
  | Ipv4 _ -> 20
  | Ipv6 _ -> 40
  | Tcp _ -> 20
  | Udp _ -> 8
  | Icmpv4 _ | Icmpv6 _ -> 8
  | Arp _ -> 28
  | Vxlan _ -> 8
  | Tls _ -> 5
  | Ssh -> String.length ssh_banner
  | Http `Request -> String.length http_request_line
  | Http `Response -> String.length http_response_line
  | Dns _ -> 12
  | Ntp -> 48
  | Quic -> quic_header_len

let name = function
  | Ethernet _ -> "eth"
  | Vlan _ -> "vlan"
  | Mpls _ -> "mpls"
  | Pseudowire -> "pw"
  | Ipv4 _ -> "ipv4"
  | Ipv6 _ -> "ipv6"
  | Tcp _ -> "tcp"
  | Udp _ -> "udp"
  | Icmpv4 _ -> "icmp"
  | Icmpv6 _ -> "icmpv6"
  | Arp _ -> "arp"
  | Vxlan _ -> "vxlan"
  | Tls _ -> "tls"
  | Ssh -> "ssh"
  | Http _ -> "http"
  | Dns _ -> "dns"
  | Ntp -> "ntp"
  | Quic -> "quic"

let ethertype_for = function
  | Vlan _ -> 0x8100
  | Mpls _ -> 0x8847
  | Ipv4 _ -> 0x0800
  | Ipv6 _ -> 0x86DD
  | Arp _ -> 0x0806
  | h -> invalid_arg ("Headers.ethertype_for: " ^ name h ^ " cannot follow Ethernet")

let ip_protocol_for = function
  | Tcp _ -> 6
  | Udp _ -> 17
  | Icmpv4 _ -> 1
  | Icmpv6 _ -> 58
  | h -> invalid_arg ("Headers.ip_protocol_for: " ^ name h ^ " cannot follow IP")
