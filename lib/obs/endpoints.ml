(* The /series.json endpoint: filterable, history-backed.

   Lives in obs (rather than the service binary) so the exact handler —
   parameter validation included — is exercised by the socket smoke
   tests.  The endpoint unifies two sources: the collector's rolling
   in-memory windows (authoritative for the span they still retain) and
   the on-disk {!Tsdb} history (the points older than what memory
   holds), filtered by [?since=]/[?until=]/[?name=]/[?label=k=v] query
   parameters.  Malformed parameters are answered with 400. *)

module J = Export.Json

let json_response j =
  Http.response ~content_type:"application/json" (J.to_string j ^ "\n")

(* Every [?label=k=v] pair as a required-label predicate. *)
let label_params req =
  List.fold_left
    (fun acc (k, v) ->
      match acc with
      | Error _ -> acc
      | Ok ls ->
        if k <> "label" then Ok ls
        else
          (match String.index_opt v '=' with
          | Some e when e > 0 ->
            Ok
              ((String.sub v 0 e, String.sub v (e + 1) (String.length v - e - 1))
              :: ls)
          | _ ->
            Error
              (Printf.sprintf "malformed label=%S (expected label=key=value)" v)))
    (Ok []) req.Http.query
  |> Result.map List.rev

let point_json at value = J.Obj [ ("at", J.Num at); ("value", J.Num value) ]

let series_json ?tsdb ~collector ~since ~until ~name ~labels () =
  let keep_name n = match name with None -> true | Some x -> String.equal x n in
  let keep_labels ls =
    List.for_all (fun (k, v) -> List.assoc_opt k ls = Some v) labels
  in
  let in_range at =
    (match since with None -> true | Some s -> at >= s)
    && match until with None -> true | Some u -> at <= u
  in
  (* Memory: the collector's rolling windows (filtered), remembering
     each window's oldest retained timestamp before range-filtering. *)
  let mem =
    List.filter_map
      (fun s ->
        let n = Series.name s and ls = Series.labels s in
        if keep_name n && keep_labels ls then begin
          let pts = Series.points s in
          let oldest = match pts with p :: _ -> p.Series.at | [] -> infinity in
          Some
            ( (n, ls),
              ( oldest,
                List.filter_map
                  (fun p ->
                    if in_range p.Series.at then
                      Some (point_json p.Series.at p.Series.value)
                    else None)
                  pts ) )
        end
        else None)
      (Series.Collector.series collector)
  in
  (* History: stored records older than what memory still retains (the
     windows are authoritative for their own span — a flushed point is
     on disk {e and} in its ring until evicted). *)
  let hist =
    match tsdb with
    | None -> []
    | Some store ->
      let pred = Tsdb.predicate ?since ?until ?name ~labels () in
      List.filter_map
        (fun (n, ls, records) ->
          let cut =
            match List.assoc_opt (n, ls) mem with
            | Some (oldest, _) -> oldest
            | None -> infinity
          in
          match List.filter (fun r -> r.Tsdb.t_at < cut) records with
          | [] -> None
          | kept ->
            Some
              ( (n, ls),
                List.map (fun r -> point_json r.Tsdb.t_at r.Tsdb.t_value) kept ))
        (Tsdb.query_store ~pred store)
  in
  let keys = List.sort_uniq compare (List.map fst hist @ List.map fst mem) in
  J.Obj
    [
      ( "series",
        J.Arr
          (List.map
             (fun (n, ls) ->
               let h = Option.value ~default:[] (List.assoc_opt (n, ls) hist) in
               let m =
                 match List.assoc_opt (n, ls) mem with
                 | Some (_, pts) -> pts
                 | None -> []
               in
               J.Obj
                 ([ ("name", J.Str n) ]
                 @ (match ls with
                   | [] -> []
                   | ls ->
                     [
                       ( "labels",
                         J.Obj (List.map (fun (k, v) -> (k, J.Str v)) ls) );
                     ])
                 @ [ ("points", J.Arr (h @ m)) ]))
             keys) );
    ]

let ( let* ) r f =
  match r with
  | Error why -> Http.response ~status:400 (why ^ "\n")
  | Ok v -> f v

let series ?tsdb ~collector req =
  let* since = Http.float_param req "since" in
  let* until = Http.float_param req "until" in
  let* labels = label_params req in
  let name = Http.query_param req "name" in
  json_response (series_json ?tsdb ~collector ~since ~until ~name ~labels ())

(* The /lossmap.json endpoint: the loss-attribution ledger's closed
   occasions, same 400-on-malformed contract as /series.json. *)
let lossmap ?(ledger = Ledger.default) req =
  let* occasion = Http.int_param req "occasion" in
  let site = Http.query_param req "site" in
  json_response (Ledger.to_json ?site ?occasion ledger)
