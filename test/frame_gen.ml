(* QCheck generators for frames, shared across test modules. *)

open Packet
module H = Headers

let rng_of_seed seed = Netcore.Rng.create seed

let random_ipv4 rng =
  Netcore.Ipv4_addr.random_in rng
    ~prefix:(Netcore.Ipv4_addr.of_string "10.0.0.0")
    ~prefix_len:8

let random_ipv6 rng =
  Netcore.Ipv6_addr.random_in rng
    ~prefix:(Netcore.Ipv6_addr.of_string "2001:db8::")
    ~prefix_len:32

let ethernet rng : H.header =
  H.Ethernet { src = Netcore.Mac.random rng; dst = Netcore.Mac.random rng }

let vlan rng : H.header =
  H.Vlan { pcp = Netcore.Rng.int rng 8; dei = false; vid = 1 + Netcore.Rng.int rng 4094 }

let mpls rng : H.header =
  H.Mpls
    { label = 16 + Netcore.Rng.int rng 100_000; tc = Netcore.Rng.int rng 8;
      ttl = 32 + Netcore.Rng.int rng 200 }

let ipv4 rng : H.header =
  H.Ipv4
    { src = random_ipv4 rng; dst = random_ipv4 rng; dscp = Netcore.Rng.int rng 64;
      ttl = 16 + Netcore.Rng.int rng 200; ident = Netcore.Rng.int rng 65536;
      dont_fragment = Netcore.Rng.bool rng }

let ipv6 rng : H.header =
  H.Ipv6
    { src = random_ipv6 rng; dst = random_ipv6 rng;
      traffic_class = Netcore.Rng.int rng 256;
      flow_label = Netcore.Rng.int rng 0x100000;
      hop_limit = 16 + Netcore.Rng.int rng 200 }

(* App headers are classified by well-known destination port during
   dissection, so the port must be consistent with the app layer. *)
let well_known_port : H.header -> int option = function
  | H.Tls _ | H.Quic -> Some 443
  | H.Ssh -> Some 22
  | H.Http _ -> Some 80
  | H.Dns _ -> Some 53
  | H.Ntp -> Some 123
  | H.Vxlan _ -> Some 4789
  | _ -> None

let tcp_for rng (app : H.header option) : H.header =
  let dst_port =
    match app with
    | Some a -> Option.get (well_known_port a)
    | None -> 1024 + Netcore.Rng.int rng 60000
  in
  H.Tcp
    { src_port = 32768 + Netcore.Rng.int rng 28000; dst_port;
      seq = Int64.to_int32 (Netcore.Rng.bits64 rng);
      ack_seq = Int64.to_int32 (Netcore.Rng.bits64 rng);
      flags = H.flags_psh_ack; window = Netcore.Rng.int rng 65536 }

let udp_for rng (app : H.header option) : H.header =
  let dst_port =
    match app with
    | Some a -> Option.get (well_known_port a)
    | None -> 1024 + Netcore.Rng.int rng 60000
  in
  H.Udp { src_port = 32768 + Netcore.Rng.int rng 28000; dst_port }

let tcp_app rng : H.header =
  Netcore.Rng.choice rng
    [| H.Tls { content_type = 23 }; H.Ssh; H.Http `Request; H.Http `Response |]

let udp_app rng : H.header =
  Netcore.Rng.choice rng
    [| H.Dns { query = true; id = Netcore.Rng.int rng 65536 }; H.Ntp; H.Quic |]

(* A random well-formed stack with FABRIC-style encapsulation. *)
let random_stack rng =
  let tags =
    let base = if Netcore.Rng.bernoulli rng 0.8 then [ vlan rng ] else [] in
    let mpls_count = Netcore.Rng.int rng 3 in
    base @ List.init mpls_count (fun _ -> mpls rng)
  in
  let has_mpls = List.exists (function H.Mpls _ -> true | _ -> false) tags in
  let pw_wrap =
    (* PseudoWire needs an MPLS tunnel above it. *)
    has_mpls && Netcore.Rng.bernoulli rng 0.4
  in
  let inner =
    let use_v6 = Netcore.Rng.bernoulli rng 0.1 in
    let l3 = if use_v6 then ipv6 rng else ipv4 rng in
    if Netcore.Rng.bernoulli rng 0.75 then begin
      let app = if Netcore.Rng.bernoulli rng 0.6 then Some (tcp_app rng) else None in
      [ l3; tcp_for rng app ] @ Option.to_list app
    end
    else begin
      let app = if Netcore.Rng.bernoulli rng 0.5 then Some (udp_app rng) else None in
      [ l3; udp_for rng app ] @ Option.to_list app
    end
  in
  if pw_wrap then (ethernet rng :: tags) @ (H.Pseudowire :: ethernet rng :: inner)
  else (ethernet rng :: tags) @ inner

let random_frame ?(max_payload = 1400) rng =
  let stack = random_stack rng in
  let payload_len = Netcore.Rng.int rng (max_payload + 1) in
  Frame.make stack ~payload_len

(* QCheck arbitrary: frames derived from an integer seed so shrinking
   stays meaningful. *)
let frame_arb ?max_payload () =
  QCheck.make
    ~print:(fun f ->
      Printf.sprintf "[%s] +%dB"
        (String.concat " / " (List.map H.name f.Frame.headers))
        f.Frame.payload_len)
    (QCheck.Gen.map
       (fun seed -> random_frame ?max_payload (rng_of_seed seed))
       QCheck.Gen.small_int)
