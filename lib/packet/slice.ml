open Netcore

type t = { buf : bytes; off : int; len : int }

let make buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Slice.make: window outside buffer";
  { buf; off; len }

let buffer t = t.buf
let off t = t.off
let length t = t.len

let check t i n =
  if i < 0 || i + n > t.len then invalid_arg "Slice: index out of range"

let get_u8 t i =
  check t i 1;
  Char.code (Bytes.unsafe_get t.buf (t.off + i))

let get_u16_be t i =
  check t i 2;
  Bytes.get_uint16_be t.buf (t.off + i)

let get_u32_be t i =
  check t i 4;
  Bytes.get_int32_be t.buf (t.off + i)

(* Fast variants for the overlay cursor: exactly one bounds check
   against the slice window, then unsafe byte reads.  The stock
   accessors above delegate to [Bytes.get_uint16_be] and friends, which
   re-check against the whole buffer and (for u32) box an int32; the
   hot dissection loop reads every header field through these instead. *)

let get_u8_fast t i =
  check t i 1;
  Char.code (Bytes.unsafe_get t.buf (t.off + i))

let get_u16_be_fast t i =
  check t i 2;
  let p = t.off + i in
  (Char.code (Bytes.unsafe_get t.buf p) lsl 8)
  lor Char.code (Bytes.unsafe_get t.buf (p + 1))

let get_u32_be_fast t i =
  check t i 4;
  let p = t.off + i in
  (Char.code (Bytes.unsafe_get t.buf p) lsl 24)
  lor (Char.code (Bytes.unsafe_get t.buf (p + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t.buf (p + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get t.buf (p + 3))

let sub t ~off ~len =
  check t off len;
  { buf = t.buf; off = t.off + off; len }

let to_bytes t = Bytes.sub t.buf t.off t.len

let equal_bytes t b =
  Bytes.length b = t.len
  &&
  let rec go i = i >= t.len || (Bytes.get t.buf (t.off + i) = Bytes.get b i && go (i + 1)) in
  go 0

let reader t = Wire.Reader.of_bytes ~pos:t.off ~len:t.len t.buf
