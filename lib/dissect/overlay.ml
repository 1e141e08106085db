open Netcore
module S = Packet.Slice

(* Zero-alloc overlay dissection (after Snabb's header:new_from_mem
   idiom): classify a frame by reading header fields in place through
   Packet.Slice accessors, with no Packet.Headers.header list and no
   intermediate records on the hot path.  The cursor mirrors
   Dissector.dissect_reader exactly for every layer that can influence
   the flow key or the RST bit — Ethernet, VLAN, MPLS (incl. the
   bottom-of-stack nibble sniff and PseudoWire), IPv4/IPv6 with their
   extent narrowing, TCP/UDP/ICMP, and VXLAN re-entry — and skips the
   application-layer classifiers (TLS/SSH/HTTP/DNS/NTP/QUIC), which
   only ever add stack tokens the flow key ignores.  Frames nested
   deeper than the overlay's encapsulation budget fall back to the
   record-building reference dissector, so the key and RST are
   bit-identical to the record path for every frame. *)

exception Trunc
exception Deep

(* PseudoWire and VXLAN re-enter Ethernet; beyond this nesting depth
   the overlay defers to the reference dissector (counted as a
   fallback) rather than growing special cases for pathological
   captures. *)
let max_depth = 4

type t = {
  (* growable per-frame tag scratch, reused across frames *)
  mutable vlans : int array;
  mutable n_vlans : int;
  mutable mpls : int array;
  mutable n_mpls : int;
  key_buf : Buffer.t;
  (* parse cursor: [p_pos] is the slice-relative read position,
     [p_limit] the current extent (narrowed at each IP header exactly
     like Wire.Reader.sub narrows the reference reader) *)
  mutable p_pos : int;
  mutable p_limit : int;
  (* innermost-wins L3/L4 state, overwritten as the walk descends *)
  mutable l3_kind : int;  (* 0 none, 4, 6 *)
  mutable v4_src : int;
  mutable v4_dst : int;
  mutable v6_src : Ipv6_addr.t;
  mutable v6_dst : Ipv6_addr.t;
  mutable l4_src : int;  (* -1 when no L4 header parsed *)
  mutable l4_dst : int;
  mutable has_tcp : bool;
  mutable has_udp : bool;
  mutable has_icmp : bool;
  mutable has_icmpv6 : bool;
  (* per-frame classification results *)
  mutable r_key : string option;
  mutable r_rst : bool;
  (* stats *)
  mutable n_classified : int;
  mutable n_fallbacks : int;
}

let zero_v6 = Ipv6_addr.make 0L 0L

let create () =
  {
    vlans = Array.make 8 0;
    n_vlans = 0;
    mpls = Array.make 8 0;
    n_mpls = 0;
    key_buf = Buffer.create 96;
    p_pos = 0;
    p_limit = 0;
    l3_kind = 0;
    v4_src = 0;
    v4_dst = 0;
    v6_src = zero_v6;
    v6_dst = zero_v6;
    l4_src = -1;
    l4_dst = -1;
    has_tcp = false;
    has_udp = false;
    has_icmp = false;
    has_icmpv6 = false;
    r_key = None;
    r_rst = false;
    n_classified = 0;
    n_fallbacks = 0;
  }

let reset t =
  t.n_vlans <- 0;
  t.n_mpls <- 0;
  t.p_pos <- 0;
  t.l3_kind <- 0;
  t.l4_src <- -1;
  t.l4_dst <- -1;
  t.has_tcp <- false;
  t.has_udp <- false;
  t.has_icmp <- false;
  t.has_icmpv6 <- false;
  t.r_key <- None;
  t.r_rst <- false

let push_vlan t v =
  if t.n_vlans = Array.length t.vlans then begin
    let grown = Array.make (2 * t.n_vlans) 0 in
    Array.blit t.vlans 0 grown 0 t.n_vlans;
    t.vlans <- grown
  end;
  t.vlans.(t.n_vlans) <- v;
  t.n_vlans <- t.n_vlans + 1

let push_mpls t v =
  if t.n_mpls = Array.length t.mpls then begin
    let grown = Array.make (2 * t.n_mpls) 0 in
    Array.blit t.mpls 0 grown 0 t.n_mpls;
    t.mpls <- grown
  end;
  t.mpls.(t.n_mpls) <- v;
  t.n_mpls <- t.n_mpls + 1

let need t n = if t.p_pos + n > t.p_limit then raise Trunc

let u64_of_u32s hi lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* The state machine below is Dissector.dissect_reader with the header
   pushes replaced by field updates on [t] and the app-layer classifiers
   dropped.  Each parser updates key state only after its full header
   parse succeeded, exactly like the reference pushes a header only
   after every read in it. *)

let rec parse_eth t s depth =
  if depth > max_depth then raise Deep;
  need t 14;
  let ethertype = S.get_u16_be_fast s (t.p_pos + 12) in
  t.p_pos <- t.p_pos + 14;
  after_ethertype t s depth ethertype

and after_ethertype t s depth = function
  | 0x8100 ->
    need t 4;
    let tci = S.get_u16_be_fast s t.p_pos in
    let ethertype = S.get_u16_be_fast s (t.p_pos + 2) in
    push_vlan t (tci land 0xFFF);
    t.p_pos <- t.p_pos + 4;
    after_ethertype t s depth ethertype
  | 0x8847 -> parse_mpls t s depth
  | 0x0800 -> parse_ipv4 t s depth
  | 0x86DD -> parse_ipv6 t s depth
  | 0x0806 ->
    (* ARP is terminal and contributes nothing to the key; the
       reference reads all 28 bytes, so its bounds check is mirrored
       without reading any of them. *)
    need t 28;
    t.p_pos <- t.p_pos + 28
  | _ -> ()

and parse_mpls t s depth =
  need t 4;
  let word = S.get_u32_be_fast s t.p_pos in
  push_mpls t (word lsr 12);
  t.p_pos <- t.p_pos + 4;
  if (word lsr 8) land 1 = 0 then parse_mpls t s depth
  else begin
    (* Bottom of stack: sniff the first nibble to tell IPv4/IPv6 from a
       PseudoWire control word (first nibble 0). *)
    if t.p_pos >= t.p_limit then raise Trunc;
    match S.get_u8_fast s t.p_pos lsr 4 with
    | 4 -> parse_ipv4 t s depth
    | 6 -> parse_ipv6 t s depth
    | 0 ->
      need t 4;
      t.p_pos <- t.p_pos + 4;
      parse_eth t s (depth + 1)
    | _ -> ()
  end

and parse_ipv4 t s depth =
  need t 1;
  let vihl = S.get_u8_fast s t.p_pos in
  if vihl <> 0x45 then ()
  else begin
    need t 20;
    let total_len = S.get_u16_be_fast s (t.p_pos + 2) in
    let protocol = S.get_u8_fast s (t.p_pos + 9) in
    t.v4_src <- S.get_u32_be_fast s (t.p_pos + 12);
    t.v4_dst <- S.get_u32_be_fast s (t.p_pos + 16);
    t.l3_kind <- 4;
    t.p_pos <- t.p_pos + 20;
    (* Narrow to the IP datagram extent to drop Ethernet padding. *)
    let body_len = total_len - 20 in
    if body_len >= 0 && body_len <= t.p_limit - t.p_pos then
      t.p_limit <- t.p_pos + body_len;
    parse_ip_proto t s depth protocol 4
  end

and parse_ipv6 t s depth =
  need t 40;
  let payload_len = S.get_u16_be_fast s (t.p_pos + 4) in
  let next_header = S.get_u8_fast s (t.p_pos + 6) in
  t.v6_src <-
    Ipv6_addr.make
      (u64_of_u32s
         (S.get_u32_be_fast s (t.p_pos + 8))
         (S.get_u32_be_fast s (t.p_pos + 12)))
      (u64_of_u32s
         (S.get_u32_be_fast s (t.p_pos + 16))
         (S.get_u32_be_fast s (t.p_pos + 20)));
  t.v6_dst <-
    Ipv6_addr.make
      (u64_of_u32s
         (S.get_u32_be_fast s (t.p_pos + 24))
         (S.get_u32_be_fast s (t.p_pos + 28)))
      (u64_of_u32s
         (S.get_u32_be_fast s (t.p_pos + 32))
         (S.get_u32_be_fast s (t.p_pos + 36)));
  t.l3_kind <- 6;
  t.p_pos <- t.p_pos + 40;
  if payload_len <= t.p_limit - t.p_pos then
    t.p_limit <- t.p_pos + payload_len;
  parse_ip_proto t s depth next_header 6

and parse_ip_proto t s depth protocol v =
  match protocol with
  | 6 ->
    need t 20;
    let src_port = S.get_u16_be_fast s t.p_pos in
    let dst_port = S.get_u16_be_fast s (t.p_pos + 2) in
    let data_offset = (S.get_u8_fast s (t.p_pos + 12) lsr 4) * 4 in
    let flags = S.get_u8_fast s (t.p_pos + 13) in
    t.p_pos <- t.p_pos + 20;
    if data_offset > 20 then begin
      (* Options skip can fail; the reference then never pushes the TCP
         header, so ports / proto / RST must not be recorded either. *)
      need t (data_offset - 20);
      t.p_pos <- t.p_pos + (data_offset - 20)
    end;
    t.has_tcp <- true;
    t.l4_src <- src_port;
    t.l4_dst <- dst_port;
    if flags land 0x04 <> 0 then t.r_rst <- true
  | 17 ->
    need t 8;
    let src_port = S.get_u16_be_fast s t.p_pos in
    let dst_port = S.get_u16_be_fast s (t.p_pos + 2) in
    t.p_pos <- t.p_pos + 8;
    t.has_udp <- true;
    t.l4_src <- src_port;
    t.l4_dst <- dst_port;
    (* VXLAN is the one payload classifier that can matter to the key:
       it re-enters Ethernet, and the inner L3/L4 win. *)
    let min_port = if dst_port < src_port then dst_port else src_port in
    if
      (dst_port = 4789 || min_port = 4789)
      && t.p_limit - t.p_pos >= 8
    then begin
      let vx_flags = S.get_u8_fast s t.p_pos in
      if vx_flags land 0x08 <> 0 then begin
        t.p_pos <- t.p_pos + 8;
        parse_eth t s (depth + 1)
      end
    end
  | 1 when v = 4 ->
    (* Type and code are read, the next six bytes only skipped — but
       the reference pushes the header only when the skip succeeds, so
       the protocol counts for the key only past the full 8 bytes. *)
    need t 8;
    t.p_pos <- t.p_pos + 8;
    t.has_icmp <- true
  | 58 when v = 6 ->
    need t 8;
    t.p_pos <- t.p_pos + 8;
    t.has_icmpv6 <- true
  | _ -> ()

(* --- key rendering --- *)

let rec buf_add_int b n =
  if n >= 10 then buf_add_int b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let buf_add_octet b n =
  if n >= 100 then Buffer.add_char b (Char.unsafe_chr (48 + (n / 100)));
  if n >= 10 then Buffer.add_char b (Char.unsafe_chr (48 + (n / 10 mod 10)));
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let buf_add_v4 b addr =
  buf_add_octet b ((addr lsr 24) land 0xFF);
  Buffer.add_char b '.';
  buf_add_octet b ((addr lsr 16) land 0xFF);
  Buffer.add_char b '.';
  buf_add_octet b ((addr lsr 8) land 0xFF);
  Buffer.add_char b '.';
  buf_add_octet b (addr land 0xFF)

let buf_add_tags b tags n =
  if n = 0 then Buffer.add_char b '-'
  else begin
    buf_add_int b tags.(0);
    for i = 1 to n - 1 do
      Buffer.add_char b ',';
      buf_add_int b tags.(i)
    done
  end

(* Byte-identical to Acap.flow_key on the abstract record this frame
   would produce: vlans|mpls|src|dst|proto|sport:dport, lists
   comma-joined or "-", proto by tcp > udp > icmp > icmpv6 > other
   priority (service tokens never collide with those names, so plain
   protocol flags replace the stack-membership test). *)
let render_key t =
  if t.l3_kind = 0 then t.r_key <- None
  else begin
    let b = t.key_buf in
    Buffer.clear b;
    buf_add_tags b t.vlans t.n_vlans;
    Buffer.add_char b '|';
    buf_add_tags b t.mpls t.n_mpls;
    Buffer.add_char b '|';
    if t.l3_kind = 4 then begin
      buf_add_v4 b t.v4_src;
      Buffer.add_char b '|';
      buf_add_v4 b t.v4_dst
    end
    else begin
      Buffer.add_string b (Ipv6_addr.to_string t.v6_src);
      Buffer.add_char b '|';
      Buffer.add_string b (Ipv6_addr.to_string t.v6_dst)
    end;
    Buffer.add_char b '|';
    Buffer.add_string b
      (if t.has_tcp then "tcp"
       else if t.has_udp then "udp"
       else if t.has_icmp then "icmp"
       else if t.has_icmpv6 then "icmpv6"
       else "other");
    Buffer.add_char b '|';
    if t.l4_src >= 0 then begin
      buf_add_int b t.l4_src;
      Buffer.add_char b ':';
      buf_add_int b t.l4_dst
    end
    else Buffer.add_char b '-';
    t.r_key <- Some (Buffer.contents b)
  end

(* The reference path, for frames nested beyond the overlay's depth
   budget: record dissection plus abstraction, results copied into the
   same output fields.  Bit-identical by construction. *)
let fallback t ~orig_len slice =
  t.n_fallbacks <- t.n_fallbacks + 1;
  let r = Acap.of_slice ~ts:0.0 ~orig_len slice in
  t.r_key <- Acap.flow_key r;
  t.r_rst <- r.Acap.tcp_rst

let classify t ~orig_len slice =
  reset t;
  t.p_limit <- Packet.Slice.length slice;
  match parse_eth t slice 1 with
  | () | (exception Trunc) ->
    render_key t;
    t.n_classified <- t.n_classified + 1
  | exception Deep -> fallback t ~orig_len slice

let key t = t.r_key
let rst t = t.r_rst
let classified t = t.n_classified
let fallbacks t = t.n_fallbacks
