open Netcore
module H = Packet.Headers

type result = {
  headers : H.header list;
  payload_len : int;
  truncated : bool;
}

let read_mac r =
  let octets = Array.init 6 (fun _ -> Wire.Reader.u8 r) in
  Mac.of_octets octets

let read_ipv6 r =
  let hi = Wire.Reader.u64 r in
  let lo = Wire.Reader.u64 r in
  Ipv6_addr.make hi lo

let tcp_flags_of_byte b : H.tcp_flags =
  {
    fin = b land 0x01 <> 0;
    syn = b land 0x02 <> 0;
    rst = b land 0x04 <> 0;
    psh = b land 0x08 <> 0;
    ack = b land 0x10 <> 0;
    urg = b land 0x20 <> 0;
    ece = b land 0x40 <> 0;
    cwr = b land 0x80 <> 0;
  }

(* Application-layer classification by well-known port, verified against
   wire syntax, mirroring how tshark assigns a payload dissector. *)

let looks_like_tls r =
  Wire.Reader.remaining r >= 3
  &&
  let ct = Wire.Reader.peek_u8 r in
  ct >= 20 && ct <= 23

let starts_with r prefix =
  let n = String.length prefix in
  Wire.Reader.remaining r >= n
  && Bytes.equal (Wire.Reader.peek_bytes r n) (Bytes.of_string prefix)

let dissect_tls r =
  let content_type = Wire.Reader.u8 r in
  let _version = Wire.Reader.u16 r in
  let _len = Wire.Reader.u16 r in
  H.Tls { content_type }

let dissect_ssh r =
  Wire.Reader.skip r (String.length H.ssh_banner);
  H.Ssh

let dissect_http r kind =
  let line =
    match kind with
    | `Request -> H.http_request_line
    | `Response -> H.http_response_line
  in
  Wire.Reader.skip r (String.length line);
  H.Http kind

let dissect_dns r =
  let id = Wire.Reader.u16 r in
  let flags = Wire.Reader.u16 r in
  Wire.Reader.skip r 8;
  H.Dns { query = flags land 0x8000 = 0; id }

let dissect_ntp r =
  Wire.Reader.skip r 48;
  H.Ntp

let dissect_quic r =
  Wire.Reader.skip r H.quic_header_len;
  H.Quic

(* Dissection proceeds down the stack; each step returns the parsed
   header and a continuation describing what follows. *)
type next =
  | Next_eth
  | Next_vlan
  | Next_mpls
  | Next_ethertype of int
  | Next_ip_proto of int * [ `V4 | `V6 ]
  | Next_tcp_payload of int * int  (* src, dst ports *)
  | Next_udp_payload of int * int
  | Next_payload

let after_ethertype = function
  | 0x8100 -> Next_vlan
  | 0x8847 -> Next_mpls
  | 0x0800 -> Next_ethertype 0x0800
  | 0x86DD -> Next_ethertype 0x86DD
  | 0x0806 -> Next_ethertype 0x0806
  | _ -> Next_payload

let dissect_reader ~orig_len ~cap_len r0 =
  let snapped = orig_len > cap_len in
  let headers = ref [] in
  let push h = headers := h :: !headers in
  let truncated = ref snapped in
  (* [extent] is narrowed at each IP header so that Ethernet padding is
     excluded from the payload count. *)
  let rec go r state =
    match state with
    | Next_eth ->
      let dst = read_mac r in
      let src = read_mac r in
      let ethertype = Wire.Reader.u16 r in
      push (H.Ethernet { src; dst });
      go r (after_ethertype ethertype)
    | Next_vlan ->
      let tci = Wire.Reader.u16 r in
      let ethertype = Wire.Reader.u16 r in
      push
        (H.Vlan
           {
             pcp = (tci lsr 13) land 0x7;
             dei = (tci lsr 12) land 1 = 1;
             vid = tci land 0xFFF;
           });
      go r (after_ethertype ethertype)
    | Next_mpls ->
      let word = Wire.Reader.u32 r in
      let wi = Int32.to_int (Int32.logand word 0xFFFl) in
      let label = Int32.to_int (Int32.shift_right_logical word 12) in
      let tc = (wi lsr 9) land 0x7 in
      let bos = (wi lsr 8) land 1 = 1 in
      let ttl = wi land 0xFF in
      push (H.Mpls { label; tc; ttl });
      if not bos then go r Next_mpls
      else begin
        (* Bottom of stack: sniff the first nibble to tell IPv4/IPv6
           from a PseudoWire control word (first nibble 0). *)
        if Wire.Reader.remaining r = 0 then raise Wire.Reader.Truncated;
        match Wire.Reader.peek_u8 r lsr 4 with
        | 4 -> go r (Next_ethertype 0x0800)
        | 6 -> go r (Next_ethertype 0x86DD)
        | 0 ->
          let _control_word = Wire.Reader.u32 r in
          push H.Pseudowire;
          go r Next_eth
        | _ -> go r Next_payload
      end
    | Next_ethertype 0x0800 ->
      let vihl = Wire.Reader.u8 r in
      if vihl <> 0x45 then go r Next_payload
      else begin
        let dscp_ecn = Wire.Reader.u8 r in
        let total_len = Wire.Reader.u16 r in
        let ident = Wire.Reader.u16 r in
        let frag = Wire.Reader.u16 r in
        let ttl = Wire.Reader.u8 r in
        let protocol = Wire.Reader.u8 r in
        let _cksum = Wire.Reader.u16 r in
        let src = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
        let dst = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
        push
          (H.Ipv4
             {
               src;
               dst;
               dscp = dscp_ecn lsr 2;
               ttl;
               ident;
               dont_fragment = frag land 0x4000 <> 0;
             });
        (* Narrow to the IP datagram extent to drop Ethernet padding. *)
        let body_len = total_len - 20 in
        let r =
          if body_len >= 0 && body_len <= Wire.Reader.remaining r then
            Wire.Reader.sub r body_len
          else begin
            (* A total_len below the header size leaves the reader
               against the unnarrowed capture extent. *)
            if body_len > Wire.Reader.remaining r then truncated := true;
            r
          end
        in
        go r (Next_ip_proto (protocol, `V4))
      end
    | Next_ethertype 0x86DD ->
      let word = Wire.Reader.u32 r in
      let traffic_class =
        Int32.to_int (Int32.logand (Int32.shift_right_logical word 20) 0xFFl)
      in
      let flow_label = Int32.to_int (Int32.logand word 0xFFFFFl) in
      let payload_len = Wire.Reader.u16 r in
      let next_header = Wire.Reader.u8 r in
      let hop_limit = Wire.Reader.u8 r in
      let src = read_ipv6 r in
      let dst = read_ipv6 r in
      push (H.Ipv6 { src; dst; traffic_class; flow_label; hop_limit });
      let r =
        if payload_len <= Wire.Reader.remaining r then
          Wire.Reader.sub r payload_len
        else begin
          truncated := true;
          r
        end
      in
      go r (Next_ip_proto (next_header, `V6))
    | Next_ethertype 0x0806 ->
      let _htype = Wire.Reader.u16 r in
      let _ptype = Wire.Reader.u16 r in
      let _hlen = Wire.Reader.u8 r in
      let _plen = Wire.Reader.u8 r in
      let op = Wire.Reader.u16 r in
      let sender_mac = read_mac r in
      let sender_ip = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let target_mac = read_mac r in
      let target_ip = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      push
        (H.Arp
           {
             operation = (if op = 2 then `Reply else `Request);
             sender_mac;
             sender_ip;
             target_mac;
             target_ip;
           });
      (* ARP is terminal; anything left is Ethernet padding. *)
      0
    | Next_ethertype _ -> go r Next_payload
    | Next_ip_proto (6, _) ->
      let src_port = Wire.Reader.u16 r in
      let dst_port = Wire.Reader.u16 r in
      let seq = Wire.Reader.u32 r in
      let ack_seq = Wire.Reader.u32 r in
      let offset_byte = Wire.Reader.u8 r in
      let flags = tcp_flags_of_byte (Wire.Reader.u8 r) in
      let window = Wire.Reader.u16 r in
      let _cksum = Wire.Reader.u16 r in
      let _urg = Wire.Reader.u16 r in
      let data_offset = (offset_byte lsr 4) * 4 in
      if data_offset > 20 then Wire.Reader.skip r (data_offset - 20);
      push (H.Tcp { src_port; dst_port; seq; ack_seq; flags; window });
      go r (Next_tcp_payload (src_port, dst_port))
    | Next_ip_proto (17, _) ->
      let src_port = Wire.Reader.u16 r in
      let dst_port = Wire.Reader.u16 r in
      let _len = Wire.Reader.u16 r in
      let _cksum = Wire.Reader.u16 r in
      push (H.Udp { src_port; dst_port });
      go r (Next_udp_payload (src_port, dst_port))
    | Next_ip_proto (1, `V4) ->
      let icmp_type = Wire.Reader.u8 r in
      let icmp_code = Wire.Reader.u8 r in
      Wire.Reader.skip r 6;
      push (H.Icmpv4 { icmp_type; icmp_code });
      Wire.Reader.remaining r
    | Next_ip_proto (58, `V6) ->
      let icmp_type = Wire.Reader.u8 r in
      let icmp_code = Wire.Reader.u8 r in
      Wire.Reader.skip r 6;
      push (H.Icmpv6 { icmp_type; icmp_code });
      Wire.Reader.remaining r
    | Next_ip_proto (_, _) -> go r Next_payload
    | Next_tcp_payload (src_port, dst_port) ->
      if Wire.Reader.remaining r = 0 then 0
      else begin
        let port = if dst_port < src_port then dst_port else src_port in
        let classify () =
          match port with
          | 443 when looks_like_tls r -> Some (dissect_tls r)
          | 22 when starts_with r "SSH-" -> Some (dissect_ssh r)
          | 80 when starts_with r "GET " -> Some (dissect_http r `Request)
          | 80 when starts_with r "HTTP/" -> Some (dissect_http r `Response)
          | 53 when Wire.Reader.remaining r >= 12 -> Some (dissect_dns r)
          | _ -> None
        in
        match classify () with
        | Some h ->
          push h;
          Wire.Reader.remaining r
        | None -> Wire.Reader.remaining r
      end
    | Next_udp_payload (src_port, dst_port) ->
      if Wire.Reader.remaining r = 0 then 0
      else begin
        let port = if dst_port < src_port then dst_port else src_port in
        let classify () =
          match (port, dst_port) with
          | _, 4789 | 4789, _ ->
            if Wire.Reader.remaining r >= 8 then begin
              let flags = Wire.Reader.u8 r in
              Wire.Reader.skip r 3;
              let vni_word = Wire.Reader.u32 r in
              let vni = Int32.to_int (Int32.shift_right_logical vni_word 8) in
              if flags land 0x08 <> 0 then Some (`Vxlan vni) else None
            end
            else None
          | 53, _ when Wire.Reader.remaining r >= 12 -> Some (`Plain (dissect_dns r))
          | 123, _ when Wire.Reader.remaining r >= 48 -> Some (`Plain (dissect_ntp r))
          | 443, _ when Wire.Reader.remaining r >= H.quic_header_len
                        && Wire.Reader.peek_u8 r land 0x80 <> 0 ->
            Some (`Plain (dissect_quic r))
          | _ -> None
        in
        match classify () with
        | Some (`Vxlan vni) ->
          push (H.Vxlan { vni });
          go r Next_eth
        | Some (`Plain h) ->
          push h;
          Wire.Reader.remaining r
        | None -> Wire.Reader.remaining r
      end
    | Next_payload -> Wire.Reader.remaining r
  in
  let payload_len =
    try go r0 Next_eth with
    | Wire.Reader.Truncated ->
      truncated := true;
      0
  in
  { headers = List.rev !headers; payload_len; truncated = !truncated }

let dissect ?orig_len data =
  let orig_len = match orig_len with Some l -> l | None -> Bytes.length data in
  dissect_reader ~orig_len ~cap_len:(Bytes.length data)
    (Wire.Reader.of_bytes data)

(* The zero-copy path: headers are read in place through the slice's
   bounds-checked cursor, so dissecting a slice of the shared capture
   buffer allocates nothing payload-sized. *)
let dissect_slice ?orig_len slice =
  let cap_len = Packet.Slice.length slice in
  let orig_len = match orig_len with Some l -> l | None -> cap_len in
  dissect_reader ~orig_len ~cap_len (Packet.Slice.reader slice)

let dissect_packet (p : Packet.Pcap.packet) = dissect ~orig_len:p.orig_len p.data
