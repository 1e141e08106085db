type t = { buf : bytes; off : int; len : int }

let make buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Slice.make: window outside buffer";
  { buf; off; len }

let buffer t = t.buf
let offset t = t.off
let length t = t.len
