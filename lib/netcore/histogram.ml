(* Bin counts are kept as floats so that fractionally weighted
   observations (a thinned capture sample contributes 1/fraction
   "frames" per materialized record) accumulate exactly like every
   other weighted statistic, instead of being rounded per record.
   Integer counts below 2^53 stay exact, so the historical int API is
   unchanged for unweighted callers. *)
type t = { edges : float array; counts : float array }

let create edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Histogram.create: no edges";
  for i = 1 to n - 1 do
    if edges.(i) <= edges.(i - 1) then
      invalid_arg "Histogram.create: edges must be strictly increasing"
  done;
  { edges; counts = Array.make (n + 1) 0.0 }

(* Index of the bin containing [v]: 0 for v < e0, i for e(i-1) <= v < e(i),
   n for v >= e(n-1). *)
let bin t v =
  let n = Array.length t.edges in
  if v < t.edges.(0) then 0
  else if v >= t.edges.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* Invariant: edges.(lo) <= v < edges.(hi). *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v < t.edges.(mid) then hi := mid else lo := mid
    done;
    !lo + 1
  end

let add_bin t i ~count =
  if count < 0.0 then invalid_arg "Histogram.add_bin: negative count";
  t.counts.(i) <- t.counts.(i) +. count

let add t v = add_bin t (bin t v) ~count:1.0

let ftotal t = Array.fold_left ( +. ) 0.0 t.counts
let counts t = Array.map (fun c -> int_of_float (Float.round c)) t.counts
let total t = int_of_float (Float.round (ftotal t))

let bin_label t i =
  let n = Array.length t.edges in
  if i = 0 then Printf.sprintf "(-inf, %g)" t.edges.(0)
  else if i = n then Printf.sprintf "[%g, +inf)" t.edges.(n - 1)
  else Printf.sprintf "[%g, %g)" t.edges.(i - 1) t.edges.(i)

let fractions t =
  let tot = ftotal t in
  if tot = 0.0 then Array.make (Array.length t.counts) 0.0
  else Array.map (fun c -> c /. tot) t.counts

module Log2 = struct
  type t = { mutable buckets : int array }

  let create () = { buckets = Array.make 32 0 }

  let ensure t k =
    if k >= Array.length t.buckets then begin
      let grown = Array.make (k + 8) 0 in
      Array.blit t.buckets 0 grown 0 (Array.length t.buckets);
      t.buckets <- grown
    end

  let exponent v = if v < 1.0 then 0 else int_of_float (Float.log2 v)

  let add t ?(count = 1) v =
    if v < 0.0 then invalid_arg "Histogram.Log2.add: negative value";
    let k = exponent v in
    ensure t k;
    t.buckets.(k) <- t.buckets.(k) + count

  let buckets t =
    let acc = ref [] in
    Array.iteri (fun k c -> if c > 0 then acc := (k, c) :: !acc) t.buckets;
    List.rev !acc

  let upper_bound_sum t ~min_exponent =
    let sum = ref 0.0 in
    Array.iteri
      (fun k c ->
        if k >= min_exponent && c > 0 then
          sum := !sum +. (float_of_int c *. (2.0 ** float_of_int (k + 1))))
      t.buckets;
    !sum

end
