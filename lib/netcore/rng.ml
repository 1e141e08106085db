(* The state lives in 8 bytes read and written as a raw int64, and
   [mix], [bits64] and [float] are inlined within this module: a draw
   then keeps every int64 in a register instead of boxing the new state
   and the mixed word. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 finalizer: mixes the incremented state into an output word. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (bits64 t)

let[@inline] float t =
  (* 53 random bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for
     bounds far below 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t < p

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float t and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let pareto t ~shape ~scale =
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: negative mean";
  if mean = 0.0 then 0
  else if mean > 64.0 then
    (* Normal approximation with continuity correction. *)
    max 0 (int_of_float (Float.round (gaussian t ~mu:mean ~sigma:(sqrt mean))))
  else begin
    (* Knuth's product of uniforms, in refs so the floats stay unboxed. *)
    let limit = exp (-.mean) in
    let k = ref 0 and p = ref (float t) in
    while not (!p <= limit) do
      incr k;
      p := !p *. float t
    done;
    !k
  end

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let weighted t items =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.weighted: weights must sum to > 0";
  let target = float t *. total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.weighted: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest ->
      let acc = acc +. w in
      if target < acc then x else pick acc rest
  in
  pick 0.0 items

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
