(* One seeded mutation of a valid input [s], with [other] (a second
   valid input) as splice material: bit flips, truncation at any
   offset, a u16 or u32 overwrite (0, all ones, the top bit or a random
   word), or a prefix of [s] spliced onto a suffix of [other].  With
   [fields] = (lo, hi), half the overwrites land inside [lo, hi), where
   the format keeps its length and count fields.  Returns the operator's
   name with the mutated bytes. *)
let mutate ?fields rng ~other s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let pick () = Netcore.Rng.int rng n in
  let field_offset width =
    match fields with
    | Some (lo, hi) when Netcore.Rng.bool rng ->
      Netcore.Rng.int_in rng lo (hi - width)
    | _ -> Netcore.Rng.int rng (n - width + 1)
  in
  let word bits =
    match Netcore.Rng.int rng 4 with
    | 0 -> 0
    | 1 -> (1 lsl bits) - 1
    | 2 -> 1 lsl (bits - 1)
    | _ -> Netcore.Rng.int rng (1 lsl bits)
  in
  match Netcore.Rng.int rng 5 with
  | 0 ->
    for _ = 0 to Netcore.Rng.int rng 4 do
      let i = pick () in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Netcore.Rng.int rng 8))
    done;
    ("bit flips", Bytes.to_string b)
  | 1 -> ("truncation", String.sub s 0 (pick ()))
  | 2 ->
    Bytes.set_uint16_le b (field_offset 2) (word 16);
    ("u16 overwrite", Bytes.to_string b)
  | 3 ->
    Bytes.set_int32_le b (field_offset 4) (Int32.of_int (word 32));
    ("u32 overwrite", Bytes.to_string b)
  | _ ->
    let j = Netcore.Rng.int rng (String.length other) in
    ( "splice",
      String.sub s 0 (pick ()) ^ String.sub other j (String.length other - j) )

(* [f i what input] for 2,000 seeded mutations of the valid inputs
   [bases], each spliced with the next base. *)
let iter ?fields ~seed bases f =
  let bases = Array.of_list bases in
  let rng = Netcore.Rng.create seed in
  for i = 1 to 2000 do
    let base = Netcore.Rng.int rng (Array.length bases) in
    let other = bases.((base + 1) mod Array.length bases) in
    let what, input = mutate ?fields rng ~other bases.(base) in
    f i what input
  done
