exception Malformed of string

let shb_type = 0x0A0D0D0A
let idb_type = 0x00000001
let epb_type = 0x00000006
let spb_type = 0x00000003

(* --- Reader --- *)

type endian = Big | Little

(* An unsigned 32-bit field, read as two 16-bit halves so no [int32] is
   boxed. *)
let ru32 endian buf pos =
  if pos + 4 > Bytes.length buf then raise (Malformed "truncated u32");
  match endian with
  | Big -> (Bytes.get_uint16_be buf pos lsl 16) lor Bytes.get_uint16_be buf (pos + 2)
  | Little -> (Bytes.get_uint16_le buf (pos + 2) lsl 16) lor Bytes.get_uint16_le buf pos

(* A length or timestamp field: a top bit set means a corrupt capture,
   as the classic reader says, never a length to mask into a small
   one. *)
let ru32i endian buf pos =
  let v = ru32 endian buf pos in
  if v land 0x8000_0000 <> 0 then
    raise (Malformed (Printf.sprintf "field out of range: 0x%08x" v));
  v

let is_pcapng buf = Bytes.length buf >= 4 && ru32 Big buf 0 = shb_type

(* Ticks per second of the interface an Interface Description Block
   declares, from the options between [pos] and [stop]: its
   [if_tsresol] (option 9, one byte) is a power of ten with the high bit
   clear and of two with it set, and without one the resolution is the
   microsecond.  Each option is its code, its length and its value
   padded to 32 bits; code 0 ends the list. *)
let rec ticks_per_second endian buf pos ~stop =
  if pos + 4 > stop then 1e6
  else begin
    let code, olen =
      match endian with
      | Big -> (Bytes.get_uint16_be buf pos, Bytes.get_uint16_be buf (pos + 2))
      | Little -> (Bytes.get_uint16_le buf pos, Bytes.get_uint16_le buf (pos + 2))
    in
    if code = 0 then 1e6
    else if pos + 4 + olen > stop then raise (Malformed "option overruns its block")
    else if code = 9 then begin
      if olen <> 1 then raise (Malformed "if_tsresol is not one byte");
      let v = Bytes.get_uint8 buf (pos + 4) in
      if v land 0x80 = 0 then 10.0 ** float_of_int v else Float.ldexp 1.0 (v land 0x7F)
    end
    else ticks_per_second endian buf (pos + 4 + ((olen + 3) land lnot 3)) ~stop
  end

(* The block walk: block headers only, never payload bytes, one record
   per Enhanced or Simple Packet Block, handed over as classic pcap's
   walk hands its records.  The digest reads each record's frame where
   it lies.  [ifaces] holds the ticks per second of each interface the
   current section has declared, in declaration order. *)
let fold buf ~init ~f =
  if not (is_pcapng buf) then raise (Malformed "not a pcapng stream");
  let len = Bytes.length buf in
  let rec go acc endian ifaces pos =
    if pos = len then acc
    else begin
      (* A block header is 12 bytes: type, length and, at the block's
         end, the length again. *)
      if pos + 12 > len then raise (Malformed "truncated block header");
      (* Section headers carry the byte-order magic; detect per
         section. *)
      let section = ru32 Big buf pos = shb_type in
      let endian =
        if not section then endian
        else
          match ru32 Big buf (pos + 8) with
          | 0x1A2B3C4D -> Big
          | 0x4D3C2B1A -> Little
          | _ -> raise (Malformed "bad byte-order magic")
      in
      let total = ru32i endian buf (pos + 4) in
      if total < 12 || total mod 4 <> 0 || pos + total > len then
        raise (Malformed "bad block length");
      let body = pos + 8 in
      let block_type = ru32 endian buf pos in
      let next = pos + total in
      if section then go acc endian [||] next
      else if block_type = idb_type then
        (* Link type, reserved and snap length, then the options. *)
        let tps = ticks_per_second endian buf (body + 8) ~stop:(next - 4) in
        go acc endian (Array.append ifaces [| tps |]) next
      else if block_type = epb_type then begin
        (* A timestamp counts its interface's ticks: one the section
           never declared has no unit. *)
        let iface = ru32 endian buf body in
        if iface >= Array.length ifaces then
          raise (Malformed (Printf.sprintf "packet on undeclared interface %d" iface));
        let hi = ru32i endian buf (body + 4) in
        let lo = ru32 endian buf (body + 8) in
        let incl = ru32i endian buf (body + 12) in
        let orig = ru32i endian buf (body + 16) in
        if body + 20 + incl > next then raise (Malformed "truncated packet");
        let ticks = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo) in
        go
          (f acc ~ts:(Int64.to_float ticks /. ifaces.(iface)) ~orig_len:orig ~off:(body + 20)
             ~cap_len:incl)
          endian ifaces next
      end
      else if block_type = spb_type then begin
        (* Type, length, original length and the trailing length: a
           shorter block has no room for its own header. *)
        if total < 16 then raise (Malformed "simple packet block shorter than 16 bytes");
        let orig = ru32i endian buf body in
        let room = total - 16 in
        go
          (f acc ~ts:0.0 ~orig_len:orig ~off:(body + 4)
             ~cap_len:(if orig < room then orig else room))
          endian ifaces next
      end
      else go acc endian ifaces next
    end
  in
  go init Big [||] 0

let fold_any buf ~init ~f =
  if is_pcapng buf then fold buf ~init ~f else Pcap.Reader.fold buf ~init ~f
