open Netcore
module H = Packet.Headers

type result = {
  headers : H.header list;
  payload_len : int;
  truncated : bool;
}

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

let kind_index = function
  | Eth -> 0
  | Vlan -> 1
  | Mpls -> 2
  | Pw -> 3
  | Ipv4 -> 4
  | Ipv6 -> 5
  | Tcp -> 6
  | Udp -> 7
  | Icmpv4 -> 8
  | Icmpv6 -> 9
  | Arp -> 10
  | Vxlan -> 11
  | Tls -> 12
  | Ssh -> 13
  | Http -> 14
  | Dns -> 15
  | Ntp -> 16
  | Quic -> 17

(* By [kind_index]: the token {!H.name} gives the kind's header. *)
let kind_names =
  [|
    "eth"; "vlan"; "mpls"; "pw"; "ipv4"; "ipv6"; "tcp"; "udp"; "icmp"; "icmpv6";
    "arp"; "vxlan"; "tls"; "ssh"; "http"; "dns"; "ntp"; "quic";
  |]

module Tape = struct
  type t = {
    mutable bytes : bytes;
    mutable length : int;
    mutable kinds : kind array;
    mutable offs : int array;
    mutable a : int array;
    mutable b : int array;
    mutable payload_len : int;
    mutable truncated : bool;
  }

  let create () =
    {
      bytes = Bytes.empty;
      length = 0;
      kinds = Array.make 16 Eth;
      offs = Array.make 16 0;
      a = Array.make 16 0;
      b = Array.make 16 0;
      payload_len = 0;
      truncated = false;
    }

  let grow t =
    let n = 2 * Array.length t.kinds in
    let extend v fill =
      let w = Array.make n fill in
      Array.blit v 0 w 0 t.length;
      w
    in
    t.kinds <- extend t.kinds Eth;
    t.offs <- extend t.offs 0;
    t.a <- extend t.a 0;
    t.b <- extend t.b 0

  let push t kind off a b =
    if t.length = Array.length t.kinds then grow t;
    let i = t.length in
    Array.unsafe_set t.kinds i kind;
    Array.unsafe_set t.offs i off;
    Array.unsafe_set t.a i a;
    Array.unsafe_set t.b i b;
    t.length <- i + 1
end

(* --- the walk ------------------------------------------------------ *)

(* The walk reads the frame where it sits: each step takes the position
   of its header and the end of the bytes it may read (narrowed at each
   IP header to the datagram, so Ethernet padding is not payload),
   checks that its header fits, puts it on the tape and returns the
   payload length of the frame.  A header that runs past the end is
   not put on the tape: the walk stops, and the frame is truncated with
   no payload. *)

exception Cut

let need pos lim n = if pos + n > lim then raise_notrace Cut
let u8 (t : Tape.t) p = Bytes.get_uint8 t.bytes p
let u16 (t : Tape.t) p = Bytes.get_uint16_be t.bytes p

let rec same_from b pos s i =
  i = String.length s || (Bytes.get b (pos + i) = String.get s i && same_from b pos s (i + 1))

(* Whether the bytes at [pos] are the string's, within [lim]. *)
let starts_with (t : Tape.t) pos lim s =
  pos + String.length s <= lim && same_from t.bytes pos s 0

(* A fixed-size application header at [pos], put on the tape. *)
let fixed t kind ~a pos lim n =
  need pos lim n;
  Tape.push t kind pos a 0;
  lim - (pos + n)

let rec eth t pos lim =
  need pos lim 14;
  Tape.push t Eth pos 0 0;
  ethertype t (u16 t (pos + 12)) (pos + 14) lim

and ethertype t et pos lim =
  match et with
  | 0x8100 -> vlan t pos lim
  | 0x8847 -> mpls t pos lim
  | 0x0800 -> ipv4 t pos lim
  | 0x86DD -> ipv6 t pos lim
  | 0x0806 -> arp t pos lim
  | _ -> lim - pos

and vlan t pos lim =
  need pos lim 4;
  Tape.push t Vlan pos (u16 t pos land 0xFFF) 0;
  ethertype t (u16 t (pos + 2)) (pos + 4) lim

and mpls t pos lim =
  need pos lim 4;
  let lo = u16 t (pos + 2) in
  Tape.push t Mpls pos ((u16 t pos lsl 4) lor (lo lsr 12)) 0;
  let pos = pos + 4 in
  if lo land 0x100 = 0 then mpls t pos lim
  else begin
    (* Bottom of stack: the first nibble tells IPv4/IPv6 from a
       PseudoWire control word (first nibble 0). *)
    need pos lim 1;
    match u8 t pos lsr 4 with
    | 4 -> ipv4 t pos lim
    | 6 -> ipv6 t pos lim
    | 0 ->
      need pos lim 4;
      Tape.push t Pw pos 0 0;
      eth t (pos + 4) lim
    | _ -> lim - pos
  end

and ipv4 t pos lim =
  need pos lim 1;
  (* Options are not parsed: past a version byte other than 0x45 the
     rest is payload. *)
  if u8 t pos <> 0x45 then lim - (pos + 1)
  else begin
    need pos lim 20;
    Tape.push t Ipv4 pos 0 0;
    let body = u16 t (pos + 2) - 20 and proto = u8 t (pos + 9) in
    let pos = pos + 20 in
    (* A total length below the header size leaves the capture's
       extent; one beyond it truncates. *)
    let lim =
      if body >= 0 && body <= lim - pos then pos + body
      else begin
        if body > lim - pos then t.Tape.truncated <- true;
        lim
      end
    in
    ip_proto t proto ~v6:false pos lim
  end

and ipv6 t pos lim =
  need pos lim 40;
  Tape.push t Ipv6 pos 0 0;
  let body = u16 t (pos + 4) and proto = u8 t (pos + 6) in
  let pos = pos + 40 in
  let lim =
    if body <= lim - pos then pos + body
    else begin
      t.Tape.truncated <- true;
      lim
    end
  in
  ip_proto t proto ~v6:true pos lim

(* ARP is terminal; anything after it is Ethernet padding. *)
and arp t pos lim =
  need pos lim 28;
  Tape.push t Arp pos 0 0;
  0

and ip_proto t proto ~v6 pos lim =
  match proto with
  | 6 -> tcp t pos lim
  | 17 -> udp t pos lim
  | 1 when not v6 -> fixed t Icmpv4 ~a:0 pos lim 8
  | 58 when v6 -> fixed t Icmpv6 ~a:0 pos lim 8
  | _ -> lim - pos

and tcp t pos lim =
  need pos lim 20;
  let src_port = u16 t pos and dst_port = u16 t (pos + 2) in
  let len = (u8 t (pos + 12) lsr 4) * 4 in
  let len = if len > 20 then len else 20 in
  need pos lim len;
  Tape.push t Tcp pos src_port dst_port;
  tcp_payload t ~src_port ~dst_port (pos + len) lim

and udp t pos lim =
  need pos lim 8;
  let src_port = u16 t pos and dst_port = u16 t (pos + 2) in
  Tape.push t Udp pos src_port dst_port;
  udp_payload t ~src_port ~dst_port (pos + 8) lim

(* Application-layer classification by well-known port, verified
   against wire syntax, as tshark assigns a payload dissector.  What a
   classifier declines is payload. *)
and tcp_payload t ~src_port ~dst_port pos lim =
  let payload = lim - pos in
  if payload = 0 then 0
  else
    (* HTTP on 8080 too, as Wireshark's HTTP dissector claims it. *)
    match if dst_port < src_port then dst_port else src_port with
    | 443 when payload >= 3 && u8 t pos >= 20 && u8 t pos <= 23 ->
      fixed t Tls ~a:(u8 t pos) pos lim 5
    | 22 when starts_with t pos lim "SSH-" ->
      fixed t Ssh ~a:0 pos lim (String.length H.ssh_banner)
    | (80 | 8080) when starts_with t pos lim "GET " ->
      fixed t Http ~a:0 pos lim (String.length H.http_request_line)
    | (80 | 8080) when starts_with t pos lim "HTTP/" ->
      fixed t Http ~a:1 pos lim (String.length H.http_response_line)
    | 53 when payload >= 12 -> dns t pos lim
    | _ -> payload

and udp_payload t ~src_port ~dst_port pos lim =
  let payload = lim - pos in
  if payload = 0 then 0
  else
    let port = if dst_port < src_port then dst_port else src_port in
    if port = 4789 || dst_port = 4789 then
      if payload >= 8 && u8 t pos land 0x08 <> 0 then begin
        Tape.push t Vxlan pos ((u16 t (pos + 4) lsl 8) lor u8 t (pos + 6)) 0;
        eth t (pos + 8) lim
      end
      else payload
    else
      match port with
      | 53 when payload >= 12 -> dns t pos lim
      | 123 when payload >= 48 -> fixed t Ntp ~a:0 pos lim 48
      | 443 when payload >= H.quic_header_len && u8 t pos land 0x80 <> 0 ->
        fixed t Quic ~a:0 pos lim H.quic_header_len
      | _ -> payload

(* A header with neither a question nor an answer is not DNS (the codec
   writes a question in every header): zero bytes on port 53, such as a
   reverse stream's payload, stay payload.  The caller checked that the
   12 bytes are there. *)
and dns t pos lim =
  if u16 t (pos + 4) = 0 && u16 t (pos + 6) = 0 then lim - pos
  else fixed t Dns ~a:0 pos lim 12

let walk t bytes ~off ~cap_len ~orig_len =
  if off < 0 || cap_len < 0 || off + cap_len > Bytes.length bytes then
    invalid_arg "Dissector.walk: record outside buffer";
  t.Tape.bytes <- bytes;
  t.Tape.length <- 0;
  t.Tape.truncated <- orig_len > cap_len;
  t.Tape.payload_len <-
    (try eth t off (off + cap_len)
     with Cut ->
       t.Tape.truncated <- true;
       0)

(* --- typed headers, read back from the tape ------------------------ *)

let get8 = Bytes.get_uint8
let get16 = Bytes.get_uint16_be

let mac b p =
  Mac.of_int64
    (Int64.logor
       (Int64.shift_left (Int64.of_int (get16 b p)) 32)
       (Int64.of_int ((get16 b (p + 2) lsl 16) lor get16 b (p + 4))))

let ipv4_addr b p = Ipv4_addr.of_int32 (Bytes.get_int32_be b p)
let ipv6_addr b p = Ipv6_addr.make (Bytes.get_int64_be b p) (Bytes.get_int64_be b (p + 8))

let tcp_flags_of_byte v : H.tcp_flags =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0;
    ack = v land 0x10 <> 0;
    urg = v land 0x20 <> 0;
    ece = v land 0x40 <> 0;
    cwr = v land 0x80 <> 0;
  }

let header (t : Tape.t) i : H.header =
  let b = t.bytes and p = t.offs.(i) and a = t.a.(i) in
  match t.kinds.(i) with
  | Eth -> H.Ethernet { dst = mac b p; src = mac b (p + 6) }
  | Vlan ->
    let tci = get16 b p in
    H.Vlan { pcp = (tci lsr 13) land 0x7; dei = (tci lsr 12) land 1 = 1; vid = a }
  | Mpls ->
    let lo = get16 b (p + 2) in
    H.Mpls { label = a; tc = (lo lsr 9) land 0x7; ttl = lo land 0xFF }
  | Pw -> H.Pseudowire
  | Ipv4 ->
    H.Ipv4
      {
        src = ipv4_addr b (p + 12);
        dst = ipv4_addr b (p + 16);
        dscp = get8 b (p + 1) lsr 2;
        ttl = get8 b (p + 8);
        ident = get16 b (p + 4);
        dont_fragment = get16 b (p + 6) land 0x4000 <> 0;
      }
  | Ipv6 ->
    H.Ipv6
      {
        src = ipv6_addr b (p + 8);
        dst = ipv6_addr b (p + 24);
        traffic_class = (get16 b p lsr 4) land 0xFF;
        flow_label = ((get8 b (p + 1) land 0xF) lsl 16) lor get16 b (p + 2);
        hop_limit = get8 b (p + 7);
      }
  | Tcp ->
    H.Tcp
      {
        src_port = a;
        dst_port = t.b.(i);
        seq = Bytes.get_int32_be b (p + 4);
        ack_seq = Bytes.get_int32_be b (p + 8);
        flags = tcp_flags_of_byte (get8 b (p + 13));
        window = get16 b (p + 14);
      }
  | Udp -> H.Udp { src_port = a; dst_port = t.b.(i) }
  | Icmpv4 -> H.Icmpv4 { icmp_type = get8 b p; icmp_code = get8 b (p + 1) }
  | Icmpv6 -> H.Icmpv6 { icmp_type = get8 b p; icmp_code = get8 b (p + 1) }
  | Arp ->
    H.Arp
      {
        operation = (if get16 b (p + 6) = 2 then `Reply else `Request);
        sender_mac = mac b (p + 8);
        sender_ip = ipv4_addr b (p + 14);
        target_mac = mac b (p + 18);
        target_ip = ipv4_addr b (p + 24);
      }
  | Vxlan -> H.Vxlan { vni = a }
  | Tls -> H.Tls { content_type = a }
  | Ssh -> H.Ssh
  | Http -> H.Http (if a = 0 then `Request else `Response)
  | Dns -> H.Dns { query = get16 b (p + 2) land 0x8000 = 0; id = get16 b p }
  | Ntp -> H.Ntp
  | Quic -> H.Quic

let result (t : Tape.t) =
  {
    headers = List.init t.length (header t);
    payload_len = t.payload_len;
    truncated = t.truncated;
  }

let dissect data =
  let t = Tape.create () in
  walk t data ~off:0 ~cap_len:(Bytes.length data) ~orig_len:(Bytes.length data);
  result t

let dissect_slice ~orig_len slice =
  let t = Tape.create () in
  walk t (Packet.Slice.buffer slice) ~off:(Packet.Slice.offset slice)
    ~cap_len:(Packet.Slice.length slice) ~orig_len;
  result t
