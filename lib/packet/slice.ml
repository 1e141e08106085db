open Netcore

type t = { buf : bytes; off : int; len : int }

let make buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Slice.make: window outside buffer";
  { buf; off; len }

let length t = t.len

let reader t = Wire.Reader.of_bytes ~pos:t.off ~len:t.len t.buf
