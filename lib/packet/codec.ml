open Netcore

let tcp_flags_byte (f : Headers.tcp_flags) =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor (if f.urg then 0x20 else 0)
  lor (if f.ece then 0x40 else 0)
  lor (if f.cwr then 0x80 else 0)

(* EtherType of the layer following an Ethernet/VLAN header, given the
   headers after it; payload-only frames after Ethernet get an
   experimental EtherType. *)
let ethertype_of_next = function
  | h :: _ -> Headers.ethertype_for h
  | [] -> 0x88B5

let ip_protocol_of_next = function
  | h :: _ -> Headers.ip_protocol_for h
  | [] -> 0xFD (* experimental *)

(* A MAC is 48 bits: the top 16, then the low 32. *)
let put_mac w m =
  let m = Mac.to_int64 m in
  Wire.Writer.u16 w (Int64.to_int (Int64.shift_right_logical m 32));
  Wire.Writer.u32 w (Int64.to_int32 m)

(* Write one header at the writer's end.  [rest] are the headers after
   it.  The fields a stamp sets are written as zero: IPv4 total length,
   ident and checksum, IPv6 payload length, UDP length and checksum,
   and TCP seq and checksum. *)
let put_header w (h : Headers.header) rest =
  match h with
  | Ethernet { src; dst } ->
    put_mac w dst;
    put_mac w src;
    Wire.Writer.u16 w (ethertype_of_next rest)
  | Vlan { pcp; dei; vid } ->
    Wire.Writer.u16 w ((pcp lsl 13) lor ((if dei then 1 else 0) lsl 12) lor (vid land 0xFFF));
    Wire.Writer.u16 w (ethertype_of_next rest)
  | Mpls { label; tc; ttl } ->
    let bos = match rest with Headers.Mpls _ :: _ -> 0 | _ -> 1 in
    let word =
      Int32.logor
        (Int32.shift_left (Int32.of_int (label land 0xFFFFF)) 12)
        (Int32.of_int (((tc land 0x7) lsl 9) lor (bos lsl 8) lor (ttl land 0xFF)))
    in
    Wire.Writer.u32 w word
  | Pseudowire ->
    (* All-zero control word: first nibble 0 distinguishes it from IPv4/IPv6. *)
    Wire.Writer.u32 w 0l
  | Ipv4 { dscp; ttl; ident = _; dont_fragment; src; dst } ->
    Wire.Writer.u8 w 0x45;
    Wire.Writer.u8 w (dscp lsl 2);
    Wire.Writer.u16 w 0 (* total length *);
    Wire.Writer.u16 w 0 (* ident *);
    Wire.Writer.u16 w (if dont_fragment then 0x4000 else 0);
    Wire.Writer.u8 w ttl;
    Wire.Writer.u8 w (ip_protocol_of_next rest);
    Wire.Writer.u16 w 0 (* header checksum *);
    Wire.Writer.u32 w (Ipv4_addr.to_int32 src);
    Wire.Writer.u32 w (Ipv4_addr.to_int32 dst)
  | Ipv6 { traffic_class; flow_label; hop_limit; src; dst } ->
    let word =
      Int32.logor
        (Int32.shift_left 6l 28)
        (Int32.logor
           (Int32.shift_left (Int32.of_int (traffic_class land 0xFF)) 20)
           (Int32.of_int (flow_label land 0xFFFFF)))
    in
    Wire.Writer.u32 w word;
    Wire.Writer.u16 w 0 (* payload length *);
    Wire.Writer.u8 w (ip_protocol_of_next rest);
    Wire.Writer.u8 w hop_limit;
    let shi, slo = Ipv6_addr.halves src and dhi, dlo = Ipv6_addr.halves dst in
    Wire.Writer.u64 w shi;
    Wire.Writer.u64 w slo;
    Wire.Writer.u64 w dhi;
    Wire.Writer.u64 w dlo
  | Tcp { src_port; dst_port; seq = _; ack_seq; flags; window } ->
    Wire.Writer.u16 w src_port;
    Wire.Writer.u16 w dst_port;
    Wire.Writer.u32 w 0l (* seq *);
    Wire.Writer.u32 w ack_seq;
    Wire.Writer.u8 w 0x50 (* data offset 5, no options *);
    Wire.Writer.u8 w (tcp_flags_byte flags);
    Wire.Writer.u16 w window;
    Wire.Writer.u16 w 0 (* checksum *);
    Wire.Writer.u16 w 0 (* urgent pointer *)
  | Udp { src_port; dst_port } ->
    Wire.Writer.u16 w src_port;
    Wire.Writer.u16 w dst_port;
    Wire.Writer.u16 w 0 (* length *);
    Wire.Writer.u16 w 0 (* checksum *)
  | Icmpv4 { icmp_type; icmp_code } | Icmpv6 { icmp_type; icmp_code } ->
    Wire.Writer.u8 w icmp_type;
    Wire.Writer.u8 w icmp_code;
    Wire.Writer.u16 w 0 (* checksum left zero in the model *);
    Wire.Writer.u32 w 0l (* rest of header *)
  | Arp { operation; sender_mac; sender_ip; target_mac; target_ip } ->
    Wire.Writer.u16 w 1 (* htype ethernet *);
    Wire.Writer.u16 w 0x0800;
    Wire.Writer.u8 w 6;
    Wire.Writer.u8 w 4;
    Wire.Writer.u16 w (match operation with `Request -> 1 | `Reply -> 2);
    put_mac w sender_mac;
    Wire.Writer.u32 w (Ipv4_addr.to_int32 sender_ip);
    put_mac w target_mac;
    Wire.Writer.u32 w (Ipv4_addr.to_int32 target_ip)
  | Vxlan { vni } ->
    Wire.Writer.u8 w 0x08 (* flags: VNI valid *);
    Wire.Writer.u8 w 0;
    Wire.Writer.u16 w 0;
    Wire.Writer.u32 w (Int32.shift_left (Int32.of_int (vni land 0xFFFFFF)) 8)
  | Tls { content_type } ->
    Wire.Writer.u8 w content_type;
    Wire.Writer.u16 w 0x0303 (* TLS 1.2 record version *);
    Wire.Writer.u16 w 0 (* record length: left zero *)
  | Ssh -> Wire.Writer.string w Headers.ssh_banner
  | Http `Request -> Wire.Writer.string w Headers.http_request_line
  | Http `Response -> Wire.Writer.string w Headers.http_response_line
  | Dns { query; id } ->
    Wire.Writer.u16 w id;
    Wire.Writer.u16 w (if query then 0x0100 else 0x8180);
    Wire.Writer.u16 w 1 (* qdcount *);
    Wire.Writer.u16 w (if query then 0 else 1);
    Wire.Writer.u16 w 0;
    Wire.Writer.u16 w 0
  | Ntp ->
    Wire.Writer.u8 w 0x23 (* LI=0 VN=4 Mode=3 client *);
    Wire.Writer.u8 w 2 (* stratum *);
    Wire.Writer.u8 w 6;
    Wire.Writer.u8 w 0xEC;
    Wire.Writer.zeros w 44
  | Quic ->
    Wire.Writer.u8 w 0xC3 (* long header, initial *);
    Wire.Writer.u32 w 1l (* version *);
    Wire.Writer.u8 w 8 (* dcid length *);
    Wire.Writer.u64 w 0L;
    Wire.Writer.u8 w 0 (* scid length *);
    Wire.Writer.u8 w 0

(* The TCP or UDP checksum of the segment at [pos], which runs to
   [total] over the IP header at [ip].  It is summed over the header
   bytes up to [headers_end] alone: the payload and the padding after
   them are all zero bytes, which add nothing to a ones'-complement sum,
   so the sum equals the one over the whole segment. *)
let l4_checksum buf ~ip ~v6 ~protocol ~pos ~headers_end ~total =
  let len = total - pos in
  let pseudo =
    (if v6 then Checksum.ones_complement_sum buf ~pos:(ip + 8) ~len:32
     else Checksum.ones_complement_sum buf ~pos:(ip + 12) ~len:8)
    + protocol + len
  in
  Checksum.finish
    (Checksum.ones_complement_sum buf ~pos ~len:(headers_end - pos) ~initial:pseudo)

(* A field group a stamp sets, at the offset [pos] of its header in the
   template.  [ip] is the offset of the IP header around a TCP or UDP
   header, or -1 when there is none, and [v6] tells its version.  An
   IPv4 header keeps its ident and the sum of its fixed words, a TCP
   header its seq (unsigned). *)
type field =
  | Ipv4_fields of { pos : int; ident : int; sum : int }
  | Ipv6_fields of { pos : int }
  | Udp_fields of { pos : int; ip : int; v6 : bool }
  | Tcp_fields of { pos : int; ip : int; v6 : bool; seq : int }

(* The header bytes, and their fields innermost first: the order the
   checksums are filled in, so an outer checksum covers the final bytes
   of the headers inside it. *)
type template = { hdr : Wire.Writer.t; fields : field array }

let template (frame : Frame.t) =
  let hdr = Wire.Writer.create ~capacity:(Frame.header_size_total frame) () in
  let rec go ~ip ~v6 fields = function
    | [] -> fields
    | h :: rest -> (
      let pos = Wire.Writer.length hdr in
      put_header hdr h rest;
      match h with
      | Headers.Ipv4 { ident; _ } ->
        (* The total length, ident and checksum are still zero. *)
        let sum = Checksum.ones_complement_sum (Wire.Writer.buffer hdr) ~pos ~len:20 in
        go ~ip:pos ~v6:false (Ipv4_fields { pos; ident; sum } :: fields) rest
      | Headers.Ipv6 _ -> go ~ip:pos ~v6:true (Ipv6_fields { pos } :: fields) rest
      | Headers.Ethernet _ ->
        (* An inner Ethernet resets the IP context. *)
        go ~ip:(-1) ~v6:false fields rest
      | Headers.Udp _ -> go ~ip ~v6 (Udp_fields { pos; ip; v6 } :: fields) rest
      | Headers.Tcp { seq; _ } ->
        let seq = Int32.to_int seq land 0xFFFF_FFFF in
        go ~ip ~v6 (Tcp_fields { pos; ip; v6; seq } :: fields) rest
      | _ -> go ~ip ~v6 fields rest)
  in
  { hdr; fields = Array.of_list (go ~ip:(-1) ~v6:false [] frame.headers) }

let header_length t = Wire.Writer.length t.hdr

let wire_length t ~payload_len = max Frame.min_wire_size (header_length t + payload_len)

(* The fields are set in the template's own bytes, which every stamp
   overwrites whole, then the bytes are copied. *)
let stamp_into w t ~ident ~seq ~payload_len ~limit =
  if limit < 0 then invalid_arg "Codec.stamp_into: negative limit";
  let hdr = t.hdr in
  let buf = Wire.Writer.buffer hdr and headers_end = header_length t in
  let total = headers_end + payload_len in
  for i = 0 to Array.length t.fields - 1 do
    match t.fields.(i) with
    | Ipv4_fields { pos; ident = base; sum } ->
      let length = (total - pos) land 0xFFFF and ident = (base + ident) land 0xFFFF in
      Wire.Writer.patch_u16 hdr ~pos:(pos + 2) length;
      Wire.Writer.patch_u16 hdr ~pos:(pos + 4) ident;
      Wire.Writer.patch_u16 hdr ~pos:(pos + 10) (Checksum.finish (sum + length + ident))
    | Ipv6_fields { pos } -> Wire.Writer.patch_u16 hdr ~pos:(pos + 4) (total - pos - 40)
    | Udp_fields { pos; ip; v6 } ->
      Wire.Writer.patch_u16 hdr ~pos:(pos + 4) (total - pos);
      if ip >= 0 then begin
        Wire.Writer.patch_u16 hdr ~pos:(pos + 6) 0;
        let cksum = l4_checksum buf ~ip ~v6 ~protocol:17 ~pos ~headers_end ~total in
        (* RFC 768: transmitted zero checksum means "none"; use 0xFFFF. *)
        Wire.Writer.patch_u16 hdr ~pos:(pos + 6) (if cksum = 0 then 0xFFFF else cksum)
      end
    | Tcp_fields { pos; ip; v6; seq = base } ->
      let seq = base + seq in
      Wire.Writer.patch_u16 hdr ~pos:(pos + 4) (seq lsr 16);
      Wire.Writer.patch_u16 hdr ~pos:(pos + 6) seq;
      if ip >= 0 then begin
        Wire.Writer.patch_u16 hdr ~pos:(pos + 16) 0;
        Wire.Writer.patch_u16 hdr ~pos:(pos + 16)
          (l4_checksum buf ~ip ~v6 ~protocol:6 ~pos ~headers_end ~total)
      end
  done;
  let stop = min limit (max Frame.min_wire_size total) in
  let copied = min stop headers_end in
  Wire.Writer.subbytes w buf ~pos:0 ~len:copied;
  Wire.Writer.zeros w (stop - copied)

let encode_into w ~limit (frame : Frame.t) =
  stamp_into w (template frame) ~ident:0 ~seq:0 ~payload_len:frame.payload_len ~limit

let encode ?limit frame =
  let wire_len = Frame.wire_length frame in
  let limit = Option.value limit ~default:wire_len in
  let w = Wire.Writer.create ~capacity:(min limit wire_len) () in
  encode_into w ~limit frame;
  Wire.Writer.contents w
