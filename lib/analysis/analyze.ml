type site_headers = {
  hs_site : string;
  distinct_headers : int;
  deepest_stack : int;
  frames : int;
}

let occurrence records =
  let counts = Hashtbl.create 64 in
  let total = ref 0 in
  List.iter
    (fun (r : Dissect.Acap.record) ->
      incr total;
      List.iter
        (fun tok ->
          Hashtbl.replace counts tok
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts tok)))
        r.Dissect.Acap.stack)
    records;
  let total = float_of_int (max 1 !total) in
  Hashtbl.fold (fun tok c acc -> (tok, 100.0 *. float_of_int c /. total) :: acc) counts []
  (* Percent-tied tokens break on the token itself, as in
     [Profile.Builder.finish], so the order never depends on hash
     iteration. *)
  |> List.sort (fun (ta, a) (tb, b) ->
         match compare b a with 0 -> compare ta tb | c -> c)

let occurrence_of table token =
  Option.value ~default:0.0 (List.assoc_opt token table)

let standard_size_edges =
  [| 64.0; 128.0; 256.0; 512.0; 1024.0; 1519.0; 2048.0; 9000.0 |]

let frame_size_histogram records =
  let h = Netcore.Histogram.create standard_size_edges in
  List.iter
    (fun (r : Dissect.Acap.record) ->
      Netcore.Histogram.add h (float_of_int r.Dissect.Acap.orig_len))
    records;
  h

let jumbo_fraction records =
  match records with
  | [] -> 0.0
  | _ ->
    let jumbo =
      List.length
        (List.filter (fun (r : Dissect.Acap.record) -> r.Dissect.Acap.orig_len > 1518)
           records)
    in
    float_of_int jumbo /. float_of_int (List.length records)

let observed_flows records =
  let keys = Hashtbl.create 256 in
  List.iter
    (fun r ->
      match Dissect.Acap.flow_key r with
      | Some k -> Hashtbl.replace keys k ()
      | None -> ())
    records;
  Hashtbl.length keys

let ipv6_percent records =
  match records with
  | [] -> 0.0
  | _ ->
    let ipv6 =
      List.filter
        (fun (r : Dissect.Acap.record) -> List.mem "ipv6" r.Dissect.Acap.stack)
        records
    in
    100.0 *. float_of_int (List.length ipv6) /. float_of_int (List.length records)
