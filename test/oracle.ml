(* Reference implementations the library's fast paths are checked
   against, shared across test modules. *)

(* The full-payload encoder: every frame is built at its whole wire
   length, the zero payload materialized, and each checksum summed over
   the whole segment; a snap length truncates the bytes afterwards.
   [Codec.encode ~limit] writes only the first [limit] bytes and sums
   checksums over header bytes alone, and must reproduce this prefix. *)
module Full_encoder = struct
  open Netcore
  open Packet

  type fixup =
    | Fix_ipv4 of int  (* header start: patch total length, then checksum *)
    | Fix_ipv6 of int  (* header start: patch payload length *)
    | Fix_udp of int * ip_ctx  (* header start + enclosing IP *)
    | Fix_tcp of int * ip_ctx

  and ip_ctx = Ctx_v4 of int | Ctx_v6 of int  (* position of enclosing IP header *)

  let tcp_flags_byte (f : Headers.tcp_flags) =
    (if f.fin then 0x01 else 0)
    lor (if f.syn then 0x02 else 0)
    lor (if f.rst then 0x04 else 0)
    lor (if f.psh then 0x08 else 0)
    lor (if f.ack then 0x10 else 0)
    lor (if f.urg then 0x20 else 0)
    lor (if f.ece then 0x40 else 0)
    lor (if f.cwr then 0x80 else 0)

  (* EtherType of the layer following an Ethernet/VLAN header; payload-only
     frames after Ethernet get an experimental EtherType. *)
  let ethertype_of_next = function
    | Some h -> Headers.ethertype_for h
    | None -> 0x88B5

  let ip_protocol_of_next = function
    | Some h -> Headers.ip_protocol_for h
    | None -> 0xFD (* experimental *)

  let encode_header w (h : Headers.header) (next : Headers.header option) ip_ctx fixups =
    let pos = Wire.Writer.length w in
    (* Six octets, most significant first. *)
    let put_mac m =
      let v = Mac.to_int64 m in
      for i = 5 downto 0 do
        Wire.Writer.u8 w (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
      done
    in
    (match h with
    | Ethernet { src; dst } ->
      put_mac dst;
      put_mac src;
      Wire.Writer.u16 w (ethertype_of_next next)
    | Vlan { pcp; dei; vid } ->
      Wire.Writer.u16 w ((pcp lsl 13) lor ((if dei then 1 else 0) lsl 12) lor (vid land 0xFFF));
      Wire.Writer.u16 w (ethertype_of_next next)
    | Mpls { label; tc; ttl } ->
      let bos = match next with Some (Headers.Mpls _) -> 0 | _ -> 1 in
      let word =
        Int32.logor
          (Int32.shift_left (Int32.of_int (label land 0xFFFFF)) 12)
          (Int32.of_int (((tc land 0x7) lsl 9) lor (bos lsl 8) lor (ttl land 0xFF)))
      in
      Wire.Writer.u32 w word
    | Pseudowire ->
      (* All-zero control word: first nibble 0 distinguishes it from IPv4/IPv6. *)
      Wire.Writer.u32 w 0l
    | Ipv4 { dscp; ttl; ident; dont_fragment; src; dst } ->
      Wire.Writer.u8 w 0x45;
      Wire.Writer.u8 w (dscp lsl 2);
      Wire.Writer.u16 w 0 (* total length: fixed up *);
      Wire.Writer.u16 w ident;
      Wire.Writer.u16 w (if dont_fragment then 0x4000 else 0);
      Wire.Writer.u8 w ttl;
      Wire.Writer.u8 w (ip_protocol_of_next next);
      Wire.Writer.u16 w 0 (* header checksum: fixed up *);
      Wire.Writer.u32 w (Ipv4_addr.to_int32 src);
      Wire.Writer.u32 w (Ipv4_addr.to_int32 dst);
      fixups := Fix_ipv4 pos :: !fixups
    | Ipv6 { traffic_class; flow_label; hop_limit; src; dst } ->
      let word =
        Int32.logor
          (Int32.shift_left 6l 28)
          (Int32.logor
             (Int32.shift_left (Int32.of_int (traffic_class land 0xFF)) 20)
             (Int32.of_int (flow_label land 0xFFFFF)))
      in
      Wire.Writer.u32 w word;
      Wire.Writer.u16 w 0 (* payload length: fixed up *);
      Wire.Writer.u8 w (ip_protocol_of_next next);
      Wire.Writer.u8 w hop_limit;
      let shi, slo = Ipv6_addr.halves src and dhi, dlo = Ipv6_addr.halves dst in
      Wire.Writer.u64 w shi;
      Wire.Writer.u64 w slo;
      Wire.Writer.u64 w dhi;
      Wire.Writer.u64 w dlo;
      fixups := Fix_ipv6 pos :: !fixups
    | Tcp { src_port; dst_port; seq; ack_seq; flags; window } ->
      Wire.Writer.u16 w src_port;
      Wire.Writer.u16 w dst_port;
      Wire.Writer.u32 w seq;
      Wire.Writer.u32 w ack_seq;
      Wire.Writer.u8 w 0x50 (* data offset 5, no options *);
      Wire.Writer.u8 w (tcp_flags_byte flags);
      Wire.Writer.u16 w window;
      Wire.Writer.u16 w 0 (* checksum: fixed up *);
      Wire.Writer.u16 w 0 (* urgent pointer *);
      (match ip_ctx with
      | Some ctx -> fixups := Fix_tcp (pos, ctx) :: !fixups
      | None -> ())
    | Udp { src_port; dst_port } ->
      Wire.Writer.u16 w src_port;
      Wire.Writer.u16 w dst_port;
      Wire.Writer.u16 w 0 (* length: fixed up *);
      Wire.Writer.u16 w 0 (* checksum: fixed up *);
      (match ip_ctx with
      | Some ctx -> fixups := Fix_udp (pos, ctx) :: !fixups
      | None -> ())
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
      put_mac sender_mac;
      Wire.Writer.u32 w (Ipv4_addr.to_int32 sender_ip);
      put_mac target_mac;
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
      Wire.Writer.u8 w 0);
    pos

  let apply_fixups buf total_len fixups =
    let patch_u16 pos v = Bytes.set_uint16_be buf pos (v land 0xFFFF) in
    (* Pass 1: lengths. *)
    List.iter
      (function
        | Fix_ipv4 pos -> patch_u16 (pos + 2) (total_len - pos)
        | Fix_ipv6 pos -> patch_u16 (pos + 4) (total_len - pos - 40)
        | Fix_udp (pos, _) -> patch_u16 (pos + 4) (total_len - pos)
        | Fix_tcp _ -> ())
      fixups;
    (* Pass 2: checksums (lengths are final now). *)
    let pseudo_sum ctx l4_len protocol =
      match ctx with
      | Ctx_v4 ip_pos ->
        let s = Checksum.ones_complement_sum buf ~pos:(ip_pos + 12) ~len:8 in
        let s = s + protocol + l4_len in
        s
      | Ctx_v6 ip_pos ->
        let s = Checksum.ones_complement_sum buf ~pos:(ip_pos + 8) ~len:32 in
        let s = s + protocol + l4_len in
        s
    in
    List.iter
      (function
        | Fix_ipv4 pos ->
          patch_u16 (pos + 10) 0;
          let sum = Checksum.ones_complement_sum buf ~pos ~len:20 in
          patch_u16 (pos + 10) (Checksum.finish sum)
        | Fix_ipv6 _ -> ()
        | Fix_udp (pos, ctx) ->
          let l4_len = total_len - pos in
          patch_u16 (pos + 6) 0;
          let cksum =
            Checksum.finish
              (pseudo_sum ctx l4_len 17 + Checksum.ones_complement_sum buf ~pos ~len:l4_len)
          in
          (* RFC 768: transmitted zero checksum means "none"; use 0xFFFF. *)
          patch_u16 (pos + 6) (if cksum = 0 then 0xFFFF else cksum)
        | Fix_tcp (pos, ctx) ->
          let l4_len = total_len - pos in
          patch_u16 (pos + 16) 0;
          patch_u16 (pos + 16)
            (Checksum.finish
               (pseudo_sum ctx l4_len 6 + Checksum.ones_complement_sum buf ~pos ~len:l4_len)))
      fixups

  let encode (frame : Frame.t) =
    let w = Wire.Writer.create ~capacity:(Frame.wire_length frame) () in
    let fixups = ref [] in
    let rec walk ip_ctx = function
      | [] -> ()
      | h :: rest ->
        let next = match rest with [] -> None | n :: _ -> Some n in
        let pos = encode_header w h next ip_ctx fixups in
        let ip_ctx' =
          match h with
          | Headers.Ipv4 _ -> Some (Ctx_v4 pos)
          | Headers.Ipv6 _ -> Some (Ctx_v6 pos)
          | Headers.Ethernet _ -> None (* inner Ethernet resets the IP context *)
          | _ -> ip_ctx
        in
        walk ip_ctx' rest
    in
    walk None frame.headers;
    Wire.Writer.zeros w frame.payload_len;
    let unpadded = Wire.Writer.length w in
    if unpadded < Frame.min_wire_size then
      Wire.Writer.zeros w (Frame.min_wire_size - unpadded);
    let buf = Wire.Writer.contents w in
    apply_fixups buf unpadded !fixups;
    buf
end

let encode ?(snaplen = max_int) frame =
  let b = Full_encoder.encode frame in
  if Bytes.length b <= snaplen then b else Bytes.sub b 0 snaplen

(* The one's-complement sum of a byte range started from [initial]: a
   pseudo-header sum folded in with the segment's words.
   [Checksum.ones_complement_sum] starts from 0, and a TCP or UDP
   checksum adds the pseudo-header sum to its result before
   [Checksum.finish]; both must finish to the same checksum. *)
let ones_complement_sum ~initial buf ~pos ~len =
  let sum = ref initial in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  !sum

(* The capture index: the record walk ([Pcapng.fold_any]) collecting
   where each record's captured bytes lie in the buffer, with its
   timestamp and wire length.  The library reads captures only through
   the walk; the index is what the copying readers and the reader tests
   read. *)
type entry = { ts : float; orig_len : int; off : int; cap_len : int }

let entries fold buf =
  List.rev
    (fold buf ~init:[] ~f:(fun acc ~ts ~orig_len ~off ~cap_len ->
         { ts; orig_len; off; cap_len } :: acc))

let index = entries Packet.Pcapng.fold_any

(* The copying readers: each record is copied out of the capture buffer
   into a packet of its own.  These are the reference the records read
   in place are checked against, and the record the pcapng fixture
   writer takes. *)
type packet = {
  ts : float;  (* capture timestamp, seconds (microsecond precision) *)
  orig_len : int;  (* original frame length on the wire *)
  data : bytes;  (* captured bytes, possibly truncated to the snaplen *)
}

let copied buf =
  List.map (fun (e : entry) ->
      { ts = e.ts; orig_len = e.orig_len; data = Bytes.sub buf e.off e.cap_len })

let read_any buf = copied buf (index buf)
let pcap_packets buf = copied buf (entries Packet.Pcap.Reader.fold buf)

let pcapng_packets buf =
  if not (Packet.Pcapng.is_pcapng buf) then
    raise (Packet.Pcapng.Malformed "not a pcapng stream");
  read_any buf

(* The record of a frame's bytes, as the digest builds it: the [cap_len]
   captured bytes at [off] dissected through [Acap.Fields]. *)
let acap_of_bytes ~ts ~orig_len bytes ~off ~cap_len =
  let fields = Dissect.Acap.Fields.create () in
  Dissect.Acap.Fields.dissect fields bytes ~off ~cap_len ~orig_len;
  Dissect.Acap.of_fields fields ~ts ~orig_len

(* The copying decode: every packet is copied out of the capture buffer
   and dissected from the copy.  The digest, which reads each frame in
   place, must reproduce it record for record. *)
let acaps_copying buf =
  List.map
    (fun p ->
      acap_of_bytes ~ts:p.ts ~orig_len:p.orig_len p.data ~off:0
        ~cap_len:(Bytes.length p.data))
    (read_any buf)

(* The service lookup as a catalog scan: the first entry on a port
   wins, and the destination port is tried before the source port.
   [Services.lookup_index] indexes the catalog by port instead and must
   agree with this scan on every port. *)
let service_lookup l4 ~src_port ~dst_port =
  let module S = Dissect.Services in
  let find p = Array.find_opt (fun s -> s.S.port = p && s.S.l4 = l4) S.catalog in
  match find dst_port with Some s -> Some s | None -> find src_port

(* An IPv6 address through Printf: the groups in ["%x"], the longest
   run of two or more zero groups (the first of equal runs) written as
   ["::"].  [Ipv6_addr.add_to_buffer] writes the digits itself and must
   print the same text. *)
let ipv6_to_string a =
  let hi, lo = Netcore.Ipv6_addr.halves a in
  let group i =
    let half, shift = if i < 4 then (hi, (3 - i) * 16) else (lo, (7 - i) * 16) in
    Int64.to_int (Int64.logand (Int64.shift_right_logical half shift) 0xFFFFL)
  in
  let groups = Array.init 8 group in
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if groups.(!i) = 0 then begin
      let j = ref !i in
      while !j < 8 && groups.(!j) = 0 do incr j done;
      if !j - !i > !best_len then begin
        best_len := !j - !i;
        best_start := !i
      end;
      i := !j
    end
    else incr i
  done;
  let fmt lo hi =
    String.concat ":" (List.init (hi - lo) (fun k -> Printf.sprintf "%x" groups.(lo + k)))
  in
  if !best_len < 2 then fmt 0 8
  else fmt 0 !best_start ^ "::" ^ fmt (!best_start + !best_len) 8

(* A bounds-checked cursor over immutable bytes, raising [Truncated] on
   any read past its window: what the typed walk reads a frame through,
   one field at a time. *)
module Wire_reader = struct
  type t = { buf : bytes; limit : int; mutable cursor : int }

  exception Truncated

  let of_bytes ?(pos = 0) ?len buf =
    let len = match len with Some l -> l | None -> Bytes.length buf - pos in
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      invalid_arg "Wire_reader.of_bytes: bad bounds";
    { buf; limit = pos + len; cursor = pos }

  let remaining t = t.limit - t.cursor

  let need t n = if t.cursor + n > t.limit then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.unsafe_get t.buf t.cursor) in
    t.cursor <- t.cursor + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_be t.buf t.cursor in
    t.cursor <- t.cursor + 2;
    v

  let u32 t =
    need t 4;
    let v = Bytes.get_int32_be t.buf t.cursor in
    t.cursor <- t.cursor + 4;
    v

  let u64 t =
    need t 8;
    let v = Bytes.get_int64_be t.buf t.cursor in
    t.cursor <- t.cursor + 8;
    v

  let skip t n =
    need t n;
    t.cursor <- t.cursor + n

  let peek_u8 t =
    need t 1;
    Char.code (Bytes.unsafe_get t.buf t.cursor)

  let starts_with t prefix =
    let n = String.length prefix in
    t.cursor + n <= t.limit
    &&
    let i = ref 0 in
    while !i < n && Bytes.unsafe_get t.buf (t.cursor + !i) = String.unsafe_get prefix !i do
      incr i
    done;
    !i = n

  let sub t n =
    need t n;
    let r = { buf = t.buf; limit = t.cursor + n; cursor = t.cursor } in
    t.cursor <- t.cursor + n;
    r
end

(* The typed walk: each header is read through [Wire_reader]'s
   bounds-checked cursor into its typed [Headers.header], and the list
   is the result.  [Dissector.walk] reads the same frames in place onto
   a tape instead, and [Dissector.dissect] must read the tape back into
   this walk's result, header for header. *)
module Typed_dissector = struct
  open Netcore
  module H = Packet.Headers

  type result = Dissect.Dissector.result = {
    headers : H.header list;
    payload_len : int;
    truncated : bool;
  }

  (* A MAC is 48 bits: the top 16, then the low 32. *)
  let read_mac r =
    let hi = Wire_reader.u16 r in
    let lo = Wire_reader.u32 r in
    Mac.of_int64
      (Int64.logor
         (Int64.shift_left (Int64.of_int hi) 32)
         (Int64.logand (Int64.of_int32 lo) 0xFFFF_FFFFL))

  let read_ipv6 r =
    let hi = Wire_reader.u64 r in
    let lo = Wire_reader.u64 r in
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
    Wire_reader.remaining r >= 3
    &&
    let ct = Wire_reader.peek_u8 r in
    ct >= 20 && ct <= 23

  let dissect_tls r =
    let content_type = Wire_reader.u8 r in
    let _version = Wire_reader.u16 r in
    let _len = Wire_reader.u16 r in
    H.Tls { content_type }

  let dissect_ssh r =
    Wire_reader.skip r (String.length H.ssh_banner);
    H.Ssh

  let dissect_http r kind =
    let line =
      match kind with
      | `Request -> H.http_request_line
      | `Response -> H.http_response_line
    in
    Wire_reader.skip r (String.length line);
    H.Http kind

  (* A header with neither a question nor an answer is not DNS (the
     codec writes a question in every header): zero bytes on port 53,
     such as a reverse stream's payload, stay payload. *)
  let dissect_dns r =
    let id = Wire_reader.u16 r in
    let flags = Wire_reader.u16 r in
    let questions = Wire_reader.u16 r in
    let answers = Wire_reader.u16 r in
    Wire_reader.skip r 4;
    if questions = 0 && answers = 0 then None
    else Some (H.Dns { query = flags land 0x8000 = 0; id })

  let dissect_ntp r =
    Wire_reader.skip r 48;
    H.Ntp

  let dissect_quic r =
    Wire_reader.skip r H.quic_header_len;
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
        let ethertype = Wire_reader.u16 r in
        push (H.Ethernet { src; dst });
        go r (after_ethertype ethertype)
      | Next_vlan ->
        let tci = Wire_reader.u16 r in
        let ethertype = Wire_reader.u16 r in
        push
          (H.Vlan
             {
               pcp = (tci lsr 13) land 0x7;
               dei = (tci lsr 12) land 1 = 1;
               vid = tci land 0xFFF;
             });
        go r (after_ethertype ethertype)
      | Next_mpls ->
        let word = Wire_reader.u32 r in
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
          if Wire_reader.remaining r = 0 then raise Wire_reader.Truncated;
          match Wire_reader.peek_u8 r lsr 4 with
          | 4 -> go r (Next_ethertype 0x0800)
          | 6 -> go r (Next_ethertype 0x86DD)
          | 0 ->
            let _control_word = Wire_reader.u32 r in
            push H.Pseudowire;
            go r Next_eth
          | _ -> go r Next_payload
        end
      | Next_ethertype 0x0800 ->
        let vihl = Wire_reader.u8 r in
        if vihl <> 0x45 then go r Next_payload
        else begin
          let dscp_ecn = Wire_reader.u8 r in
          let total_len = Wire_reader.u16 r in
          let ident = Wire_reader.u16 r in
          let frag = Wire_reader.u16 r in
          let ttl = Wire_reader.u8 r in
          let protocol = Wire_reader.u8 r in
          let _cksum = Wire_reader.u16 r in
          let src = Ipv4_addr.of_int32 (Wire_reader.u32 r) in
          let dst = Ipv4_addr.of_int32 (Wire_reader.u32 r) in
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
            if body_len >= 0 && body_len <= Wire_reader.remaining r then
              Wire_reader.sub r body_len
            else begin
              (* A total_len below the header size leaves the reader
                 against the unnarrowed capture extent. *)
              if body_len > Wire_reader.remaining r then truncated := true;
              r
            end
          in
          go r (Next_ip_proto (protocol, `V4))
        end
      | Next_ethertype 0x86DD ->
        let word = Wire_reader.u32 r in
        let traffic_class =
          Int32.to_int (Int32.logand (Int32.shift_right_logical word 20) 0xFFl)
        in
        let flow_label = Int32.to_int (Int32.logand word 0xFFFFFl) in
        let payload_len = Wire_reader.u16 r in
        let next_header = Wire_reader.u8 r in
        let hop_limit = Wire_reader.u8 r in
        let src = read_ipv6 r in
        let dst = read_ipv6 r in
        push (H.Ipv6 { src; dst; traffic_class; flow_label; hop_limit });
        let r =
          if payload_len <= Wire_reader.remaining r then
            Wire_reader.sub r payload_len
          else begin
            truncated := true;
            r
          end
        in
        go r (Next_ip_proto (next_header, `V6))
      | Next_ethertype 0x0806 ->
        let _htype = Wire_reader.u16 r in
        let _ptype = Wire_reader.u16 r in
        let _hlen = Wire_reader.u8 r in
        let _plen = Wire_reader.u8 r in
        let op = Wire_reader.u16 r in
        let sender_mac = read_mac r in
        let sender_ip = Ipv4_addr.of_int32 (Wire_reader.u32 r) in
        let target_mac = read_mac r in
        let target_ip = Ipv4_addr.of_int32 (Wire_reader.u32 r) in
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
        let src_port = Wire_reader.u16 r in
        let dst_port = Wire_reader.u16 r in
        let seq = Wire_reader.u32 r in
        let ack_seq = Wire_reader.u32 r in
        let offset_byte = Wire_reader.u8 r in
        let flags = tcp_flags_of_byte (Wire_reader.u8 r) in
        let window = Wire_reader.u16 r in
        let _cksum = Wire_reader.u16 r in
        let _urg = Wire_reader.u16 r in
        let data_offset = (offset_byte lsr 4) * 4 in
        if data_offset > 20 then Wire_reader.skip r (data_offset - 20);
        push (H.Tcp { src_port; dst_port; seq; ack_seq; flags; window });
        go r (Next_tcp_payload (src_port, dst_port))
      | Next_ip_proto (17, _) ->
        let src_port = Wire_reader.u16 r in
        let dst_port = Wire_reader.u16 r in
        let _len = Wire_reader.u16 r in
        let _cksum = Wire_reader.u16 r in
        push (H.Udp { src_port; dst_port });
        go r (Next_udp_payload (src_port, dst_port))
      | Next_ip_proto (1, `V4) ->
        let icmp_type = Wire_reader.u8 r in
        let icmp_code = Wire_reader.u8 r in
        Wire_reader.skip r 6;
        push (H.Icmpv4 { icmp_type; icmp_code });
        Wire_reader.remaining r
      | Next_ip_proto (58, `V6) ->
        let icmp_type = Wire_reader.u8 r in
        let icmp_code = Wire_reader.u8 r in
        Wire_reader.skip r 6;
        push (H.Icmpv6 { icmp_type; icmp_code });
        Wire_reader.remaining r
      | Next_ip_proto (_, _) -> go r Next_payload
      | Next_tcp_payload (src_port, dst_port) ->
        (* A classifier that declines may have read ahead: what it
           declined is payload. *)
        let payload = Wire_reader.remaining r in
        if payload = 0 then 0
        else begin
          let port = if dst_port < src_port then dst_port else src_port in
          (* HTTP on 8080 too, as Wireshark's HTTP dissector claims it. *)
          let classify () =
            match port with
            | 443 when looks_like_tls r -> Some (dissect_tls r)
            | 22 when Wire_reader.starts_with r "SSH-" -> Some (dissect_ssh r)
            | (80 | 8080) when Wire_reader.starts_with r "GET " ->
              Some (dissect_http r `Request)
            | (80 | 8080) when Wire_reader.starts_with r "HTTP/" ->
              Some (dissect_http r `Response)
            | 53 when payload >= 12 -> dissect_dns r
            | _ -> None
          in
          match classify () with
          | Some h ->
            push h;
            Wire_reader.remaining r
          | None -> payload
        end
      | Next_udp_payload (src_port, dst_port) ->
        let payload = Wire_reader.remaining r in
        if payload = 0 then 0
        else begin
          let port = if dst_port < src_port then dst_port else src_port in
          let classify () =
            match (port, dst_port) with
            | _, 4789 | 4789, _ ->
              if Wire_reader.remaining r >= 8 then begin
                let flags = Wire_reader.u8 r in
                Wire_reader.skip r 3;
                let vni_word = Wire_reader.u32 r in
                let vni = Int32.to_int (Int32.shift_right_logical vni_word 8) in
                if flags land 0x08 <> 0 then Some (`Vxlan vni) else None
              end
              else None
            | 53, _ when payload >= 12 ->
              Option.map (fun h -> `Plain h) (dissect_dns r)
            | 123, _ when Wire_reader.remaining r >= 48 -> Some (`Plain (dissect_ntp r))
            | 443, _ when Wire_reader.remaining r >= H.quic_header_len
                          && Wire_reader.peek_u8 r land 0x80 <> 0 ->
              Some (`Plain (dissect_quic r))
            | _ -> None
          in
          match classify () with
          | Some (`Vxlan vni) ->
            push (H.Vxlan { vni });
            go r Next_eth
          | Some (`Plain h) ->
            push h;
            Wire_reader.remaining r
          | None -> payload
        end
      | Next_payload -> Wire_reader.remaining r
    in
    let payload_len =
      try go r0 Next_eth with
      | Wire_reader.Truncated ->
        truncated := true;
        0
    in
    { headers = List.rev !headers; payload_len; truncated = !truncated }

  let dissect bytes ~off ~cap_len ~orig_len =
    dissect_reader ~orig_len ~cap_len (Wire_reader.of_bytes ~pos:off ~len:cap_len bytes)
end

(* The typed abstraction: the record of a header list, field by field.
   The header tokens, then the service the port of a last TCP or UDP
   header names; the tags; the innermost IP header's endpoints and the
   innermost ports; a RST on any TCP header.  [Acap.make] renders its
   key.  [Acap.Fields] abstracts the dissector's tape instead and must
   build the same record. *)
let acap_of_headers ~ts ~orig_len ~cap_len ~truncated headers =
  let module H = Packet.Headers in
  let service =
    match List.rev headers with
    | H.Tcp { src_port; dst_port; _ } :: _ -> service_lookup Dissect.Services.Tcp ~src_port ~dst_port
    | H.Udp { src_port; dst_port } :: _ -> service_lookup Dissect.Services.Udp ~src_port ~dst_port
    | _ -> None
  in
  let stack =
    List.map H.name headers
    @ Option.to_list (Option.map (fun s -> s.Dissect.Services.service_name) service)
  in
  let endpoints =
    List.fold_left
      (fun acc h ->
        match h with
        | H.Ipv4 { src; dst; _ } ->
          Some (Netcore.Ipv4_addr.to_string src, Netcore.Ipv4_addr.to_string dst)
        | H.Ipv6 { src; dst; _ } -> Some (ipv6_to_string src, ipv6_to_string dst)
        | _ -> acc)
      None headers
  in
  let l4 =
    List.fold_left
      (fun acc h ->
        match h with
        | H.Tcp { src_port; dst_port; _ } | H.Udp { src_port; dst_port } ->
          Some (src_port, dst_port)
        | _ -> acc)
      None headers
  in
  Dissect.Acap.make ~ts ~orig_len ~cap_len ~stack
    ~vlan_ids:(List.filter_map (function H.Vlan { vid; _ } -> Some vid | _ -> None) headers)
    ~mpls_labels:
      (List.filter_map (function H.Mpls { label; _ } -> Some label | _ -> None) headers)
    ~src:(Option.map fst endpoints) ~dst:(Option.map snd endpoints) ~l4
    ~tcp_rst:(List.exists (function H.Tcp { flags; _ } -> flags.H.rst | _ -> false) headers)
    ~truncated

(* The record of a typed walk's result. *)
let acap_of_dissection ~ts ~orig_len ~cap_len (d : Dissect.Dissector.result) =
  acap_of_headers ~ts ~orig_len ~cap_len ~truncated:d.Dissect.Dissector.truncated
    d.Dissect.Dissector.headers

(* The record of a whole frame, from its typed headers with no wire
   round trip. *)
let acap_of_frame ~ts (frame : Packet.Frame.t) =
  let len = Packet.Frame.wire_length frame in
  acap_of_headers ~ts ~orig_len:len ~cap_len:len ~truncated:false frame.Packet.Frame.headers

(* The per-frame capture: every draw of [Flow_model.frames_in_window] is
   built as a frame, then filtered, offloaded, anonymized and abstracted
   on its own; the kept frames are sorted by time, stably, from newest
   generated first, and written in that order, each pcap record from
   the full-payload encoder.  Each record is the typed abstraction of
   its frame's headers.  [Capture.materialize] abstracts the bytes of
   one frame per flow class instead and must reproduce its records,
   pcap bytes and RNG state. *)
let materialize_per_frame ~(config : Patchwork.Config.t) ~rng ~fraction
    ~start_time ~end_time specs =
  let module Flow_model = Traffic.Flow_model in
  let offload =
    match config.Patchwork.Config.capture_method with
    | Patchwork.Config.Fpga_dpdk { fpga; _ } ->
      (* The compiled P4 program the offload's stride counter stands
         for: it sees the frames the filter passed, in draw order. *)
      let program =
        P4_pipeline.Compile.of_filter ~truncation:fpga.Hostmodel.Fpga_path.truncation
          ~sample_1_in:fpga.Hostmodel.Fpga_path.sample_1_in Packet.Filter.True
      in
      fun frame -> (P4_pipeline.process program frame).P4_pipeline.frame <> None
    | Patchwork.Config.Tcpdump | Patchwork.Config.Dpdk _ -> fun _ -> true
  in
  let anonymizer =
    if config.Patchwork.Config.anonymize then
      Some (Hostmodel.Anonymize.create ~key:97)
    else None
  in
  let kept = ref [] in
  List.iter
    (fun spec ->
      let scaled =
        { spec with Flow_model.byte_rate = spec.Flow_model.byte_rate *. fraction }
      in
      let frames = Flow_model.frames_in_window scaled rng ~start_time ~end_time in
      List.iter
        (fun (ts, frame) ->
          let wire_len = Packet.Frame.wire_length frame in
          if
            Packet.Filter.matches ~wire_len config.Patchwork.Config.filter frame
            && offload frame
          then begin
            let frame =
              match anonymizer with
              | Some anon -> Hostmodel.Anonymize.frame anon frame
              | None -> frame
            in
            kept := (acap_of_frame ~ts frame, frame) :: !kept
          end)
        frames)
    specs;
  let kept =
    List.stable_sort
      (fun ((a : Dissect.Acap.record), _) ((b : Dissect.Acap.record), _) ->
        compare a.Dissect.Acap.ts b.Dissect.Acap.ts)
      !kept
  in
  let pcap =
    if not config.Patchwork.Config.emit_pcap then None
    else begin
      let w = Packet.Pcap.Writer.create ~snaplen:config.Patchwork.Config.truncation () in
      List.iter
        (fun ((r : Dissect.Acap.record), frame) ->
          Packet.Pcap.Writer.add w ~ts:r.Dissect.Acap.ts (encode frame))
        kept;
      Some (Packet.Pcap.Writer.contents w)
    end
  in
  (List.map fst kept, pcap)

(* Prometheus text exposition back into data lines: the inverse of
   [Obs.Export.to_prometheus] up to float formatting (17 significant
   digits, so values round-trip exactly).  The exposition round-trip
   tests read [/metrics] back with it; no library path parses
   exposition text. *)
let parse_labels line pos =
  (* Parse {k="v",...}; [pos] points at '{'. Returns (labels, next). *)
  let n = String.length line in
  let labels = ref [] in
  let pos = ref (pos + 1) in
  let fail msg = failwith msg in
  let rec go () =
    if !pos >= n then fail "unterminated label set"
    else if line.[!pos] = '}' then incr pos
    else begin
      let key_start = !pos in
      while !pos < n && line.[!pos] <> '=' do incr pos done;
      if !pos >= n then fail "missing '=' in label";
      let key = String.sub line key_start (!pos - key_start) in
      incr pos;
      if !pos >= n || line.[!pos] <> '"' then fail "missing label value quote";
      incr pos;
      let buf = Buffer.create 16 in
      let rec value () =
        if !pos >= n then fail "unterminated label value"
        else
          match line.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            if !pos + 1 >= n then fail "bad escape";
            (match line.[!pos + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            value ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            value ()
      in
      value ();
      labels := (key, Buffer.contents buf) :: !labels;
      if !pos < n && line.[!pos] = ',' then begin
        incr pos;
        go ()
      end
      else if !pos < n && line.[!pos] = '}' then incr pos
      else fail "expected ',' or '}'"
    end
  in
  go ();
  (List.rev !labels, !pos)

let parse_value_text s =
  match String.trim s with
  | "+Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some Float.nan
  | s -> float_of_string_opt s

let parse_prometheus text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line' = String.trim line in
      if line' = "" || line'.[0] = '#' then go acc rest
      else begin
        match
          let brace = String.index_opt line' '{' in
          let name, labels, after =
            match brace with
            | Some b ->
              let name = String.sub line' 0 b in
              let labels, next = parse_labels line' b in
              (name, labels, String.sub line' next (String.length line' - next))
            | None ->
              let sp =
                match String.index_opt line' ' ' with
                | Some i -> i
                | None -> failwith "missing value"
              in
              ( String.sub line' 0 sp,
                [],
                String.sub line' sp (String.length line' - sp) )
          in
          match parse_value_text after with
          | Some v -> (name, labels, v)
          | None -> failwith ("bad value: " ^ after)
        with
        | sample -> go (sample :: acc) rest
        | exception Failure msg -> Error (Printf.sprintf "%s in %S" msg line')
      end
  in
  go [] lines

(* The keyed SNMP store: an append-only time-series store, one series
   per string key, and the telemetry over it that keeps each (site,
   port, metric) as its own series under a "SITE/p<N>/metric" key.
   [Testbed.Telemetry] keeps per-port columns instead and must answer
   every query, bit for bit, as this does. *)
module Timeseries = struct
  type series = {
    mutable times : float array;
    mutable values : float array;
    mutable len : int;
  }

  type t = (string, series) Hashtbl.t

  let create () = Hashtbl.create 64

  let find_or_add t key =
    match Hashtbl.find_opt t key with
    | Some s -> s
    | None ->
      let s = { times = Array.make 16 0.0; values = Array.make 16 0.0; len = 0 } in
      Hashtbl.add t key s;
      s

  let append t ~key ~time value =
    let s = find_or_add t key in
    if s.len > 0 && time < s.times.(s.len - 1) then
      invalid_arg "Timeseries.append: time went backwards";
    if s.len = Array.length s.times then begin
      let cap = 2 * s.len in
      let times = Array.make cap 0.0 and values = Array.make cap 0.0 in
      Array.blit s.times 0 times 0 s.len;
      Array.blit s.values 0 values 0 s.len;
      s.times <- times;
      s.values <- values
    end;
    s.times.(s.len) <- time;
    s.values.(s.len) <- value;
    s.len <- s.len + 1

  (* First index with time >= target, or len. *)
  let lower_bound s target =
    let lo = ref 0 and hi = ref s.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if s.times.(mid) < target then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Samples with [start_time <= time <= end_time], in time order. *)
  let range t ~key ~start_time ~end_time =
    match Hashtbl.find_opt t key with
    | None -> []
    | Some s ->
      let start_idx = lower_bound s start_time in
      let acc = ref [] in
      let i = ref start_idx in
      while !i < s.len && s.times.(!i) <= end_time do
        acc := (s.times.(!i), s.values.(!i)) :: !acc;
        incr i
      done;
      List.rev !acc
end

module Keyed_telemetry = struct
  module Switch = Testbed.Switch

  type t = {
    engine : Simcore.Engine.t;
    store : Timeseries.t;
    mutable switches : Switch.t list;
    (* Last polled cumulative byte counters per (site, port), used to
       turn counters into per-interval rates. *)
    last_poll : (string * int, float * float * float) Hashtbl.t;
  }

  let poll_period = 300.0

  let create engine =
    { engine; store = Timeseries.create (); switches = []; last_poll = Hashtbl.create 256 }

  let register_switch t sw = t.switches <- sw :: t.switches

  let key site port metric = Printf.sprintf "%s/p%d/%s" site port metric

  let poll_switch t sw =
    let now = Simcore.Engine.now t.engine in
    let site = Switch.site_name sw in
    for port = 0 to Switch.port_count sw - 1 do
      let c = Switch.read_counters sw ~port in
      (match Hashtbl.find_opt t.last_poll (site, port) with
      | Some (prev_time, prev_tx, prev_rx) when now > prev_time ->
        let dt = now -. prev_time in
        Timeseries.append t.store ~key:(key site port "tx_rate") ~time:now
          (Float.max 0.0 ((c.Switch.tx_bytes -. prev_tx) /. dt));
        Timeseries.append t.store ~key:(key site port "rx_rate") ~time:now
          (Float.max 0.0 ((c.Switch.rx_bytes -. prev_rx) /. dt))
      | Some _ | None -> ());
      Hashtbl.replace t.last_poll (site, port) (now, c.Switch.tx_bytes, c.Switch.rx_bytes)
    done

  let poll_now t = List.iter (poll_switch t) t.switches

  let start ?until t =
    Simcore.Engine.every t.engine ~period:poll_period ?until (fun _ -> poll_now t)

  let avg_samples samples =
    match samples with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc (_, v) -> acc +. v) 0.0 samples
      /. float_of_int (List.length samples)

  let port_avg_rate t ~site ~port ~window ~at =
    let read metric =
      Timeseries.range t.store ~key:(key site port metric)
        ~start_time:(at -. window) ~end_time:at
    in
    avg_samples (read "tx_rate") +. avg_samples (read "rx_rate")

  let busiest_port t ~site ~candidates ~window ~at =
    let rated =
      List.map (fun p -> (p, port_avg_rate t ~site ~port:p ~window ~at)) candidates
    in
    match List.filter (fun (_, r) -> r > 0.0) rated with
    | [] -> None
    | active ->
      let best =
        List.fold_left (fun (bp, br) (p, r) -> if r > br then (p, r) else (bp, br))
          (List.hd active) (List.tl active)
      in
      Some (fst best)
end
