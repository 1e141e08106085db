exception Malformed of string

let shb_type = 0x0A0D0D0Al
let epb_type = 0x00000006l
let spb_type = 0x00000003l
let byte_order_magic = 0x1A2B3C4Dl

(* --- Reader --- *)

type endian = Big | Little

let ru32 endian buf pos =
  if pos + 4 > Bytes.length buf then raise (Malformed "truncated u32");
  match endian with
  | Big ->
    Int32.logor
      (Int32.shift_left (Int32.of_int (Bytes.get_uint16_be buf pos)) 16)
      (Int32.of_int (Bytes.get_uint16_be buf (pos + 2)))
  | Little ->
    Int32.logor
      (Int32.shift_left (Int32.of_int (Bytes.get_uint16_le buf (pos + 2))) 16)
      (Int32.of_int (Bytes.get_uint16_le buf pos))

let ru32i endian buf pos = Int32.to_int (Int32.logand (ru32 endian buf pos) 0x7FFFFFFFl)

let is_pcapng buf =
  Bytes.length buf >= 4 && Int32.equal (ru32 Big buf 0) shb_type

(* First pass of the indexed decode: walk block headers sequentially and
   emit one offset/length/timestamp entry per packet block, sharing the
   entry type (and hence the whole slice machinery) with classic pcap. *)
let index buf =
  if not (is_pcapng buf) then raise (Malformed "not a pcapng stream");
  let len = Bytes.length buf in
  let out = ref [] in
  let endian = ref Big in
  let pos = ref 0 in
  while !pos + 12 <= len do
    let btype = ru32 Big buf !pos in
    (* Section headers carry the byte-order magic; detect per section. *)
    if Int32.equal btype shb_type then begin
      let magic = ru32 Big buf (!pos + 8) in
      if Int32.equal magic byte_order_magic then endian := Big
      else if Int32.equal magic 0x4D3C2B1Al then endian := Little
      else raise (Malformed "bad byte-order magic")
    end;
    let total = ru32i !endian buf (!pos + 4) in
    if total < 12 || total mod 4 <> 0 || !pos + total > len then
      raise (Malformed "bad block length");
    let body = !pos + 8 in
    let block_type_here = ru32 !endian buf !pos in
    if Int32.equal block_type_here epb_type then begin
      let hi = Int64.of_int (ru32i !endian buf (body + 4)) in
      let lo =
        Int64.logand (Int64.of_int32 (ru32 !endian buf (body + 8))) 0xFFFFFFFFL
      in
      let usec = Int64.logor (Int64.shift_left hi 32) lo in
      let incl = ru32i !endian buf (body + 12) in
      let orig = ru32i !endian buf (body + 16) in
      if body + 20 + incl > !pos + total then raise (Malformed "truncated packet");
      out :=
        {
          Pcap.ts = Int64.to_float usec /. 1e6;
          orig_len = orig;
          data_off = body + 20;
          cap_len = incl;
        }
        :: !out
    end
    else if Int32.equal block_type_here spb_type then begin
      let orig = ru32i !endian buf body in
      let incl = min orig (total - 16) in
      out :=
        { Pcap.ts = 0.0; orig_len = orig; data_off = body + 4; cap_len = incl }
        :: !out
    end;
    pos := !pos + total
  done;
  Array.of_list (List.rev !out)

let index_any buf = if is_pcapng buf then index buf else Pcap.Reader.index buf

