exception Malformed of string

let shb_type = 0x0A0D0D0A
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

(* The block walk: block headers only, never payload bytes, one record
   per Enhanced or Simple Packet Block, handed over as classic pcap's
   walk hands its records.  The digest reads each record's frame where
   it lies. *)
let fold buf ~init ~f =
  if not (is_pcapng buf) then raise (Malformed "not a pcapng stream");
  let len = Bytes.length buf in
  let rec go acc endian pos =
    if pos = len then acc
    else begin
      (* A block header is 12 bytes: type, length and, at the block's
         end, the length again. *)
      if pos + 12 > len then raise (Malformed "truncated block header");
      (* Section headers carry the byte-order magic; detect per
         section. *)
      let endian =
        if ru32 Big buf pos <> shb_type then endian
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
      let acc =
        if block_type = epb_type then begin
          let hi = ru32i endian buf (body + 4) in
          let lo = ru32 endian buf (body + 8) in
          let incl = ru32i endian buf (body + 12) in
          let orig = ru32i endian buf (body + 16) in
          if body + 20 + incl > pos + total then raise (Malformed "truncated packet");
          let usec = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo) in
          f acc ~ts:(Int64.to_float usec /. 1e6) ~orig_len:orig ~off:(body + 20) ~cap_len:incl
        end
        else if block_type = spb_type then begin
          (* Type, length, original length and the trailing length: a
             shorter block has no room for its own header. *)
          if total < 16 then raise (Malformed "simple packet block shorter than 16 bytes");
          let orig = ru32i endian buf body in
          let room = total - 16 in
          f acc ~ts:0.0 ~orig_len:orig ~off:(body + 4)
            ~cap_len:(if orig < room then orig else room)
        end
        else acc
      in
      go acc endian (pos + total)
    end
  in
  go init Big 0

let fold_any buf ~init ~f =
  if is_pcapng buf then fold buf ~init ~f else Pcap.Reader.fold buf ~init ~f
