type t = { hi : int64; lo : int64 }

let make hi lo = { hi; lo }
let halves t = (t.hi, t.lo)

let group t i =
  (* Group 0 is the most significant 16 bits. *)
  let half, shift =
    if i < 4 then (t.hi, (3 - i) * 16) else (t.lo, (7 - i) * 16)
  in
  Int64.to_int (Int64.logand (Int64.shift_right_logical half shift) 0xFFFFL)

let of_groups groups =
  if Array.length groups <> 8 then invalid_arg "Ipv6_addr.of_groups";
  let fold start =
    let acc = ref 0L in
    for i = start to start + 3 do
      if groups.(i) < 0 || groups.(i) > 0xFFFF then
        invalid_arg "Ipv6_addr: group out of range";
      acc := Int64.logor (Int64.shift_left !acc 16) (Int64.of_int groups.(i))
    done;
    !acc
  in
  { hi = fold 0; lo = fold 4 }

let of_string s =
  let expand s =
    match String.index_opt s ':' with
    | None -> invalid_arg ("Ipv6_addr.of_string: " ^ s)
    | Some _ ->
      let parts = String.split_on_char ':' s in
      (* "::" produces empty strings in the split output. *)
      let rec split_gap before = function
        | [] -> (List.rev before, None)
        | "" :: rest -> (List.rev before, Some (List.filter (fun x -> x <> "") rest))
        | x :: rest -> split_gap (x :: before) rest
      in
      let head, tail = split_gap [] parts in
      let head = List.filter (fun x -> x <> "") head in
      (match tail with
      | None ->
        if List.length head <> 8 then invalid_arg ("Ipv6_addr.of_string: " ^ s);
        head
      | Some tail ->
        let missing = 8 - List.length head - List.length tail in
        if missing < 0 then invalid_arg ("Ipv6_addr.of_string: " ^ s);
        head @ List.init missing (fun _ -> "0") @ tail)
  in
  let groups = expand s in
  let parse g =
    match int_of_string_opt ("0x" ^ g) with
    | Some v when v >= 0 && v <= 0xFFFF -> v
    | _ -> invalid_arg ("Ipv6_addr.of_string: bad group " ^ g)
  in
  of_groups (Array.of_list (List.map parse groups))

let to_string t =
  let groups = Array.init 8 (group t) in
  (* Find the longest run of zero groups (length >= 2) to compress. *)
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if groups.(!i) = 0 then begin
      let j = ref !i in
      while !j < 8 && groups.(!j) = 0 do incr j done;
      if !j - !i > !best_len then begin
        best_len := !j - !i;
        best_start := !i
      end;
      i := !j
    end
    else incr i
  done;
  if !best_len < 2 then
    String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%x") groups))
  else begin
    let fmt lo hi =
      String.concat ":"
        (List.init (hi - lo) (fun k -> Printf.sprintf "%x" groups.(lo + k)))
    in
    fmt 0 !best_start ^ "::" ^ fmt (!best_start + !best_len) 8
  end

let random_in rng ~prefix ~prefix_len =
  if prefix_len < 0 || prefix_len > 128 then invalid_arg "Ipv6_addr.random_in";
  let rand_hi = Rng.bits64 rng and rand_lo = Rng.bits64 rng in
  let mask bits =
    if bits <= 0 then 0L
    else if bits >= 64 then -1L
    else Int64.shift_left (-1L) (64 - bits)
  in
  let hi_mask = mask prefix_len and lo_mask = mask (prefix_len - 64) in
  {
    hi = Int64.logor (Int64.logand prefix.hi hi_mask) (Int64.logand rand_hi (Int64.lognot hi_mask));
    lo = Int64.logor (Int64.logand prefix.lo lo_mask) (Int64.logand rand_lo (Int64.lognot lo_mask));
  }
