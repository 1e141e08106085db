(* A pcapng encoder for the reader's fixtures: one big-endian section
   (Section Header, one Ethernet Interface Description at microsecond
   resolution, or with [tsresol] at the one its [if_tsresol] option
   declares, then one Enhanced Packet Block per packet, or with [simple]
   one Simple Packet Block, which has no timestamp). *)

let pad32 n = (4 - (n land 3)) land 3

let write ?(snaplen = 65535) ?(simple = false) ?tsresol packets =
  let buf = Buffer.create 4096 in
  let u32 = Buffer.add_int32_be buf in
  let u32i v = u32 (Int32.of_int v) in
  let u16 = Buffer.add_uint16_be buf in
  let block btype body_len emit_body =
    let total = 12 + body_len + pad32 body_len in
    u32 btype;
    u32i total;
    emit_body ();
    for _ = 1 to pad32 body_len do
      Buffer.add_char buf '\x00'
    done;
    u32i total
  in
  (* Section Header Block. *)
  block 0x0A0D0D0Al 16 (fun () ->
      u32 0x1A2B3C4Dl (* byte-order magic *);
      u16 1 (* major *);
      u16 0 (* minor *);
      u32 0xFFFFFFFFl;
      u32 0xFFFFFFFFl (* section length unspecified *));
  (* Interface Description Block: Ethernet, and with [tsresol] three
     options, each padded to 32 bits: the interface's name first, as
     capture tools write it (if_name, code 2, 5 bytes), then if_tsresol
     (code 9, one byte) and the end of options. *)
  block 0x00000001l
    (if tsresol = None then 8 else 32)
    (fun () ->
      u16 1 (* LINKTYPE_ETHERNET *);
      u16 0 (* reserved *);
      u32i snaplen;
      Option.iter
        (fun v ->
          u16 2;
          u16 5;
          Buffer.add_string buf "eth10\x00\x00\x00";
          u16 9;
          u16 1;
          Buffer.add_uint8 buf v;
          Buffer.add_string buf "\x00\x00\x00";
          u32 0l)
        tsresol);
  let ticks_per_second =
    match tsresol with
    | None -> 1e6
    | Some v when v land 0x80 = 0 -> 10.0 ** float_of_int v
    | Some v -> 2.0 ** float_of_int (v land 0x7F)
  in
  (* Packet blocks. *)
  List.iter
    (fun (p : Oracle.packet) ->
      let data = p.Oracle.data in
      let incl = min (Bytes.length data) snaplen in
      let ticks = Int64.of_float (p.Oracle.ts *. ticks_per_second) in
      if simple then
        block 0x00000003l (4 + incl) (fun () ->
            u32i p.Oracle.orig_len;
            Buffer.add_subbytes buf data 0 incl)
      else
        block 0x00000006l (20 + incl) (fun () ->
            u32 0l (* interface id *);
            u32 (Int64.to_int32 (Int64.shift_right_logical ticks 32));
            u32 (Int64.to_int32 ticks);
            u32i incl;
            u32i p.Oracle.orig_len;
            Buffer.add_subbytes buf data 0 incl))
    packets;
  Buffer.to_bytes buf

(* The record a capture with snap length [snaplen] stores for a frame:
   its wire length, and its bytes encoded only that far. *)
let packet_of_frame ?(snaplen = 65535) ~ts frame : Oracle.packet =
  let w = Netcore.Wire.Writer.create () in
  Packet.Codec.encode_into w ~limit:snaplen frame;
  { ts; orig_len = Packet.Frame.wire_length frame; data = Netcore.Wire.Writer.contents w }

let of_frames ?snaplen frames =
  write ?snaplen
    (List.map (fun (ts, frame) -> packet_of_frame ?snaplen ~ts frame) frames)
