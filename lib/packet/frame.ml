type t = { headers : Headers.header list; payload_len : int }

let min_wire_size = 60

(* Layer categories used by the validation automaton. *)
type layer =
  | Start
  | After_eth
  | After_vlan
  | After_mpls
  | After_pw
  | After_ip4
  | After_ip6
  | After_l4_tcp
  | After_l4_udp
  | After_vxlan
  | Terminal

let step state (h : Headers.header) =
  match (state, h) with
  | Start, Ethernet _ -> Ok After_eth
  | Start, _ -> Error "frame must start with Ethernet"
  | (After_eth | After_vlan), Vlan _ -> Ok After_vlan
  | (After_eth | After_vlan | After_mpls), Mpls _ -> Ok After_mpls
  | After_mpls, Pseudowire -> Ok After_pw
  | After_pw, Ethernet _ -> Ok After_eth
  | After_vxlan, Ethernet _ -> Ok After_eth
  | (After_eth | After_vlan | After_mpls), Ipv4 _ -> Ok After_ip4
  | (After_eth | After_vlan | After_mpls), Ipv6 _ -> Ok After_ip6
  | (After_eth | After_vlan), Arp _ -> Ok Terminal
  | (After_ip4 | After_ip6), Tcp _ -> Ok After_l4_tcp
  | (After_ip4 | After_ip6), Udp _ -> Ok After_l4_udp
  | After_ip4, Icmpv4 _ -> Ok Terminal
  | After_ip6, Icmpv6 _ -> Ok Terminal
  | After_l4_udp, Vxlan _ -> Ok After_vxlan
  | After_l4_tcp, (Tls _ | Ssh | Http _) -> Ok Terminal
  | After_l4_udp, (Dns _ | Ntp | Quic) -> Ok Terminal
  | After_l4_tcp, Dns _ -> Ok Terminal
  | _, h -> Error (Printf.sprintf "header %s not valid at this position" (Headers.name h))

let validate headers =
  let rec go state = function
    | [] -> (
      match state with
      | Start -> Error "empty header stack"
      | After_pw -> Error "PseudoWire must be followed by Ethernet"
      | After_vxlan -> Error "VXLAN must be followed by Ethernet"
      | _ -> Ok ())
    | h :: rest -> (
      match step state h with Ok state' -> go state' rest | Error _ as e -> e)
  in
  go Start headers

let make headers ~payload_len =
  if payload_len < 0 then invalid_arg "Frame.make: negative payload";
  match validate headers with
  | Ok () -> { headers; payload_len }
  | Error msg -> invalid_arg ("Frame.make: " ^ msg)

let header_size_total t =
  List.fold_left (fun acc h -> acc + Headers.size h) 0 t.headers

let wire_length t = max min_wire_size (header_size_total t + t.payload_len)

let vlan_ids t =
  List.filter_map
    (function Headers.Vlan { vid; _ } -> Some vid | _ -> None)
    t.headers

let mpls_labels t =
  List.filter_map
    (function Headers.Mpls { label; _ } -> Some label | _ -> None)
    t.headers

let tokens t = List.map Headers.name t.headers
