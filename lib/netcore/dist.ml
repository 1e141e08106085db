type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Gaussian of float * float
  | Lognormal of float * float
  | Pareto of float * float
  | Empirical of (float * float) array
  | Mixture of (float * t) list
  | Shifted of float * t
  | Clamped of float * float * t

(* [Rng.weighted rng (Array.to_list pairs)] without the copy: every
   frame size is an empirical draw.  The same left-to-right total, the
   same [target < acc] walk and the last bin taken unconditionally keep
   each draw bit-identical; loops over refs keep the floats unboxed. *)
let empirical rng pairs =
  let n = Array.length pairs in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. fst pairs.(i)
  done;
  if !total <= 0.0 then invalid_arg "Rng.weighted: weights must sum to > 0";
  let target = Rng.float rng *. !total in
  let i = ref 0 and acc = ref (0.0 +. fst pairs.(0)) in
  while !i < n - 1 && not (target < !acc) do
    incr i;
    acc := !acc +. fst pairs.(!i)
  done;
  snd pairs.(!i)

let rec sample d rng =
  match d with
  | Constant v -> v
  | Uniform (lo, hi) -> lo +. (Rng.float rng *. (hi -. lo))
  | Exponential mean -> Rng.exponential rng ~mean
  | Gaussian (mu, sigma) -> Rng.gaussian rng ~mu ~sigma
  | Lognormal (mu, sigma) -> Rng.lognormal rng ~mu ~sigma
  | Pareto (shape, scale) -> Rng.pareto rng ~shape ~scale
  | Empirical pairs -> empirical rng pairs
  | Mixture parts ->
    let inner = Rng.weighted rng parts in
    sample inner rng
  | Shifted (offset, inner) -> offset +. sample inner rng
  | Clamped (lo, hi, inner) -> Float.max lo (Float.min hi (sample inner rng))

let sample_int d rng = int_of_float (Float.round (sample d rng))

let rec mean = function
  | Constant v -> Some v
  | Uniform (lo, hi) -> Some ((lo +. hi) /. 2.0)
  | Exponential m -> Some m
  | Gaussian (mu, _) -> Some mu
  | Lognormal (mu, sigma) -> Some (exp (mu +. (sigma *. sigma /. 2.0)))
  | Pareto (shape, scale) ->
    if shape > 1.0 then Some (shape *. scale /. (shape -. 1.0)) else None
  | Empirical pairs ->
    let total_w = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 pairs in
    if total_w <= 0.0 then None
    else
      Some
        (Array.fold_left (fun acc (w, v) -> acc +. (w *. v)) 0.0 pairs /. total_w)
  | Mixture parts ->
    let total_w = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
    if total_w <= 0.0 then None
    else
      List.fold_left
        (fun acc (w, d) ->
          match (acc, mean d) with
          | Some a, Some m -> Some (a +. (w /. total_w *. m))
          | _ -> None)
        (Some 0.0) parts
  | Shifted (offset, inner) -> Option.map (fun m -> m +. offset) (mean inner)
  | Clamped _ -> None

module Zipf = struct
  type sampler = { cdf : float array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for rank = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int rank ** s));
      cdf.(rank - 1) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun i v -> cdf.(i) <- v /. total) cdf;
    { cdf }

  let sample t rng =
    let u = Rng.float rng in
    (* Binary search for the first index with cdf >= u. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1
end

module Summary = struct
  type stats = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then invalid_arg "Summary.percentile: empty array";
    let idx = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.of_int (int_of_float idx)) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = idx -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

  let of_array values =
    let n = Array.length values in
    if n = 0 then invalid_arg "Summary.of_array: empty array";
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let total = Array.fold_left ( +. ) 0.0 sorted in
    let mean = total /. float_of_int n in
    let var =
      Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 sorted
      /. float_of_int n
    in
    {
      count = n;
      mean;
      stddev = sqrt var;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile sorted 50.0;
      p90 = percentile sorted 90.0;
      p99 = percentile sorted 99.0;
    }

end
