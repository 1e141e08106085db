type t = int32

let of_int32 v = v
let to_int32 t = t

let of_octets a b c d =
  let check x = if x < 0 || x > 255 then invalid_arg "Ipv4_addr.of_octets" in
  check a; check b; check c; check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match
      (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
    with
    | Some a, Some b, Some c, Some d -> of_octets a b c d
    | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s))
  | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)

(* Rendered once per decoded packet on the analysis fast path, so this
   writes digits straight into the result, which is the one allocation. *)
let digits n = if n >= 100 then 3 else if n >= 10 then 2 else 1

(* Write octet [n] at [pos] and return the position after it. *)
let put_octet buf pos n =
  let d = digits n in
  if d = 3 then Bytes.unsafe_set buf pos (Char.unsafe_chr (48 + (n / 100)));
  if d >= 2 then
    Bytes.unsafe_set buf (pos + d - 2) (Char.unsafe_chr (48 + (n / 10 mod 10)));
  Bytes.unsafe_set buf (pos + d - 1) (Char.unsafe_chr (48 + (n mod 10)));
  pos + d

let to_string t =
  let v = Int32.to_int t land 0xFFFF_FFFF in
  let a = v lsr 24 and b = (v lsr 16) land 0xFF in
  let c = (v lsr 8) land 0xFF and d = v land 0xFF in
  let buf = Bytes.create (digits a + digits b + digits c + digits d + 3) in
  let pos = put_octet buf 0 a in
  Bytes.unsafe_set buf pos '.';
  let pos = put_octet buf (pos + 1) b in
  Bytes.unsafe_set buf pos '.';
  let pos = put_octet buf (pos + 1) c in
  Bytes.unsafe_set buf pos '.';
  ignore (put_octet buf (pos + 1) d);
  Bytes.unsafe_to_string buf

let mask_of_len len =
  if len < 0 || len > 32 then invalid_arg "Ipv4_addr: bad prefix length";
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let random_in rng ~prefix ~prefix_len =
  let mask = mask_of_len prefix_len in
  let host_bits = Int32.lognot mask in
  let raw = Int64.to_int32 (Rng.bits64 rng) in
  Int32.logor (Int32.logand prefix mask) (Int32.logand raw host_bits)

let equal = Int32.equal
