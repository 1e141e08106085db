type series = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

type t = (string, series) Hashtbl.t

let create () = Hashtbl.create 64

let find_or_add t key =
  match Hashtbl.find_opt t key with
  | Some s -> s
  | None ->
    let s = { times = Array.make 16 0.0; values = Array.make 16 0.0; len = 0 } in
    Hashtbl.add t key s;
    s

let append t ~key ~time value =
  let s = find_or_add t key in
  if s.len > 0 && time < s.times.(s.len - 1) then
    invalid_arg "Timeseries.append: time went backwards";
  if s.len = Array.length s.times then begin
    let cap = 2 * s.len in
    let times = Array.make cap 0.0 and values = Array.make cap 0.0 in
    Array.blit s.times 0 times 0 s.len;
    Array.blit s.values 0 values 0 s.len;
    s.times <- times;
    s.values <- values
  end;
  s.times.(s.len) <- time;
  s.values.(s.len) <- value;
  s.len <- s.len + 1

let last t ~key =
  match Hashtbl.find_opt t key with
  | Some s when s.len > 0 -> Some (s.times.(s.len - 1), s.values.(s.len - 1))
  | _ -> None

(* First index with time >= target, or len. *)
let lower_bound s target =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.times.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let range t ~key ~start_time ~end_time =
  match Hashtbl.find_opt t key with
  | None -> []
  | Some s ->
    let start_idx = lower_bound s start_time in
    let acc = ref [] in
    let i = ref start_idx in
    while !i < s.len && s.times.(!i) <= end_time do
      acc := (s.times.(!i), s.values.(!i)) :: !acc;
      incr i
    done;
    List.rev !acc
