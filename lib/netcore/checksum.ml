let ones_complement_sum ?(initial = 0) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum: bad range";
  let sum = ref initial in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  (* Fold carries. *)
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  !sum

let finish sum =
  let folded = ref sum in
  while !folded > 0xFFFF do
    folded := (!folded land 0xFFFF) + (!folded lsr 16)
  done;
  lnot !folded land 0xFFFF
