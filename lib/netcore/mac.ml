type t = int64

let mask48 = 0xFFFF_FFFF_FFFFL

let of_int64 v = Int64.logand v mask48
let to_int64 t = t

let random rng =
  let raw = Int64.logand (Rng.bits64 rng) mask48 in
  (* Set locally-administered, clear multicast. *)
  let first = Int64.logand (Int64.shift_right_logical raw 40) 0xFFL in
  let first = Int64.logor (Int64.logand first 0xFCL) 2L in
  Int64.logor (Int64.shift_left first 40) (Int64.logand raw 0xFF_FFFF_FFFFL)
