(* `patchwork_cli doctor`: the platform auditing its own measurement
   quality.  A battery of health checks — loss-ledger conservation,
   federation staleness, active alerts, segment-store validation
   sweeps — rendered as PASS/WARN/FAIL lines, against either a live
   service (`--live PORT`, over the HTTP endpoints) or an on-disk
   history (`--history DIR`, over the tsdb segments directly).

   The conservation checks recompute `offered = stored + Σ attributed`
   from the numbers themselves (never trusting a stored "conserved"
   flag), so doctor agrees with the in-process ledger by construction
   or says why not. *)

module J = Obs.Export.Json

type status = Pass | Warn | Fail

type check = { c_name : string; c_status : status; c_detail : string }

let check c_name c_status c_detail = { c_name; c_status; c_detail }

let status_label = function Pass -> "PASS" | Warn -> "WARN" | Fail -> "FAIL"

let render checks =
  List.iter
    (fun c ->
      Printf.printf "%s  %-24s %s\n" (status_label c.c_status) c.c_name
        c.c_detail)
    checks;
  let count st = List.length (List.filter (fun c -> c.c_status = st) checks) in
  let fails = count Fail in
  Printf.printf "doctor: %d check%s, %d passed, %d warning%s, %d failed\n"
    (List.length checks)
    (if List.length checks = 1 then "" else "s")
    (count Pass) (count Warn)
    (if count Warn = 1 then "" else "s")
    fails;
  fails

(* Relative conservation test, same rule as the ledger's close. *)
let conserved ~offered residual =
  Float.abs residual <= Obs.Ledger.tolerance *. Float.max 1.0 offered

let num name j = Option.bind (J.member name j) J.to_float
let str name j = Option.bind (J.member name j) J.to_str

(* --- live checks (scraping 127.0.0.1:port) -------------------------- *)

let fetch ~port path =
  match Obs.Http.get ~port path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok (status, body) -> Ok (status, body)

let check_endpoint ~port ~name path =
  match fetch ~port path with
  | Error msg -> check name Fail msg
  | Ok (200, _) -> check name Pass (path ^ " answers 200")
  | Ok (503, _) -> check name Warn (path ^ " answers 503 (not ready yet)")
  | Ok (status, _) ->
    check name Fail (Printf.sprintf "%s answers %d" path status)

(* Recompute conservation for every occasion × site in a lossmap
   payload; [] means no closed occasion yet. *)
let lossmap_violations doc =
  match J.member "occasions" doc with
  | Some (J.Arr occasions) ->
    let violations = ref [] in
    let sites = ref 0 in
    List.iter
      (fun occ ->
        let seq =
          int_of_float (Option.value ~default:(-1.0) (num "seq" occ))
        in
        match J.member "sites" occ with
        | Some (J.Arr ss) ->
          List.iter
            (fun s ->
              incr sites;
              let site = Option.value ~default:"?" (str "site" s) in
              let field outer inner =
                Option.value ~default:0.0
                  (Option.bind (J.member outer s) (num inner))
              in
              let attr inner =
                match J.member "causes" s with
                | Some (J.Arr cs) ->
                  List.fold_left
                    (fun acc c -> acc +. Option.value ~default:0.0 (num inner c))
                    0.0 cs
                | _ -> 0.0
              in
              let test kind =
                let offered = field "offered" kind in
                let residual = offered -. field "stored" kind -. attr kind in
                if not (conserved ~offered residual) then
                  violations :=
                    Printf.sprintf "occasion %d site %s: %s residual %g" seq
                      site kind residual
                    :: !violations
              in
              test "frames";
              test "bytes")
            ss
        | _ -> ())
      occasions;
    Ok (!sites, List.rev !violations)
  | _ -> Error "no occasions member in /lossmap.json"

let check_lossmap ~port =
  let name = "ledger conservation" in
  match fetch ~port "/lossmap.json" with
  | Error msg -> check name Fail msg
  | Ok (status, _) when status <> 200 ->
    check name Fail (Printf.sprintf "/lossmap.json answers %d" status)
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg -> check name Fail ("/lossmap.json unparseable: " ^ msg)
    | Ok doc -> (
      match lossmap_violations doc with
      | Error msg -> check name Fail msg
      | Ok (0, _) -> check name Warn "no closed occasion in the ledger yet"
      | Ok (sites, []) ->
        check name Pass
          (Printf.sprintf "offered = stored + attributed over %d site entr%s"
             sites
             (if sites = 1 then "y" else "ies"))
      | Ok (_, (v :: _ as all)) ->
        check name Fail
          (Printf.sprintf "%d violation%s; first: %s" (List.length all)
             (if List.length all = 1 then "" else "s")
             v)))

let check_alerts ~port =
  let name = "active alerts" in
  match fetch ~port "/alerts.json" with
  | Error msg -> check name Fail msg
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg -> check name Fail ("/alerts.json unparseable: " ^ msg)
    | Ok doc -> (
      match J.member "active" doc with
      | Some (J.Arr []) | None -> check name Pass "none active"
      | Some (J.Arr actives) ->
        let names =
          List.filter_map (fun a -> str "rule" a) actives
          |> List.sort_uniq compare
        in
        check name Warn
          (Printf.sprintf "%d active: %s" (List.length actives)
             (String.concat ", " names))
      | Some _ -> check name Fail "malformed active member"))

(* Federation staleness from the served /series.json. *)
let check_up ~port =
  let name = "federation up{site}" in
  match fetch ~port "/series.json" with
  | Error msg -> check "series endpoint" Fail msg
  | Ok (status, _) when status <> 200 ->
    check "series endpoint" Fail
      (Printf.sprintf "/series.json answers %d" status)
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg ->
      check "series endpoint" Fail ("/series.json unparseable: " ^ msg)
    | Ok doc ->
      let up =
        List.filter_map
          (fun (n, ls, pts) ->
            if n = "up" then
              Option.map
                (fun site -> (site, List.rev pts))
                (List.assoc_opt "site" ls)
            else None)
          (Live.series_of_json doc)
      in
      if up = [] then check name Pass "no federated sites"
      else
        let down =
          List.filter_map
            (fun (site, pts) ->
              match pts with
              | (_, v) :: _ when v < 1.0 -> Some site
              | _ -> None)
            up
        in
        if down = [] then
          check name Pass
            (Printf.sprintf "%d site%s up" (List.length up)
               (if List.length up = 1 then "" else "s"))
        else check name Fail ("down: " ^ String.concat ", " down))

let live_checks ~port =
  [ check_endpoint ~port ~name:"service liveness" "/healthz" ]
  @ [ check_endpoint ~port ~name:"service readiness" "/readyz" ]
  @ [ check_lossmap ~port ]
  @ [ check_alerts ~port ]
  @ [ check_up ~port ]

(* --- history checks (an on-disk tsdb directory) --------------------- *)

let check_tsdb_segments dir =
  let name = "tsdb segment sweep" in
  match Obs.Tsdb.segments_in_dir dir with
  | [] -> [ check name Warn (Printf.sprintf "no segments under %s" dir) ]
  | segments ->
    let corrupt = ref [] in
    let partial = ref [] in
    let records = ref 0 in
    List.iter
      (fun path ->
        match Obs.Tsdb.Segment.read_all path with
        | Error msg -> corrupt := (path, msg) :: !corrupt
        | Ok (rs, dropped) ->
          records := !records + List.length rs;
          if dropped then partial := path :: !partial)
      segments;
    let sweep =
      match List.rev !corrupt with
      | [] ->
        check name Pass
          (Printf.sprintf "%d segment%s, %d records valid"
             (List.length segments)
             (if List.length segments = 1 then "" else "s")
             !records)
      | (path, msg) :: _ as all ->
        check name Fail
          (Printf.sprintf "%d corrupt segment%s; first: %s (%s)"
             (List.length all)
             (if List.length all = 1 then "" else "s")
             (Filename.basename path) msg)
    in
    let tails =
      match List.rev !partial with
      | [] -> []
      | ps ->
        [
          check "tsdb unsealed tails" Warn
            (Printf.sprintf
               "%d segment%s with a torn tail record (killed writer): %s"
               (List.length ps)
               (if List.length ps = 1 then "" else "s")
               (String.concat ", " (List.map Filename.basename ps)));
        ]
    in
    sweep :: tails

(* Conservation from persisted series alone: per (site, at, res) bucket,
   Σ ledger_offered_frames = Σ ledger_stored_frames +
   Σ loss_attributed_frames.  Works on raw points and on downsampled
   buckets alike, because compaction is sum-preserving and buckets the
   two sides of the identity identically. *)
let check_history_conservation segments =
  let name = "ledger conservation" in
  match Obs.Tsdb.query segments with
  | exception Obs.Tsdb.Corrupt msg -> check name Fail msg
  | groups ->
    let table = Hashtbl.create 64 in
    let entry site at res =
      let key = (site, at, res) in
      match Hashtbl.find_opt table key with
      | Some e -> e
      | None ->
        let e = (ref 0.0, ref 0.0, ref 0.0) in
        Hashtbl.add table key e;
        e
    in
    let saw_ledger = ref false in
    List.iter
      (fun (n, ls, records) ->
        match List.assoc_opt "site" ls with
        | None -> ()
        | Some site ->
          let side =
            match n with
            | "ledger_offered_frames" -> Some `Offered
            | "ledger_stored_frames" -> Some `Stored
            | "loss_attributed_frames" -> Some `Attributed
            | _ -> None
          in
          (match side with
          | None -> ()
          | Some side ->
            saw_ledger := true;
            List.iter
              (fun (r : Obs.Tsdb.record) ->
                let offered, stored, attributed =
                  entry site r.Obs.Tsdb.t_at r.Obs.Tsdb.t_res
                in
                let cell =
                  match side with
                  | `Offered -> offered
                  | `Stored -> stored
                  | `Attributed -> attributed
                in
                cell := !cell +. r.Obs.Tsdb.t_sum)
              records))
      groups;
    if not !saw_ledger then
      check name Warn "no ledger series in the history (older run?)"
    else begin
      let violations = ref [] in
      let cells = ref 0 in
      Hashtbl.iter
        (fun (site, at, _) (offered, stored, attributed) ->
          incr cells;
          let residual = !offered -. !stored -. !attributed in
          if not (conserved ~offered:!offered residual) then
            violations :=
              Printf.sprintf "site %s at %g: residual %g frames" site at
                residual
              :: !violations)
        table;
      match List.rev !violations with
      | [] ->
        check name Pass
          (Printf.sprintf
             "offered = stored + attributed over %d (site, time) cell%s"
             !cells
             (if !cells = 1 then "" else "s"))
      | v :: _ as all ->
        check name Fail
          (Printf.sprintf "%d violation%s; first: %s" (List.length all)
             (if List.length all = 1 then "" else "s")
             v)
    end

let check_history_up segments =
  let name = "federation up{site}" in
  match Obs.Tsdb.query ~pred:(Obs.Tsdb.predicate ~name:"up" ()) segments with
  | exception Obs.Tsdb.Corrupt msg -> check name Fail msg
  | [] -> check name Pass "no federated sites"
  | groups ->
    let down =
      List.filter_map
        (fun (_, ls, records) ->
          match (List.assoc_opt "site" ls, List.rev records) with
          | Some site, last :: _ ->
            let _, v = Obs.Tsdb.point_of_record last in
            if v < 1.0 then Some site else None
          | _ -> None)
        groups
    in
    if down = [] then
      check name Pass
        (Printf.sprintf "%d site%s up at last scrape" (List.length groups)
           (if List.length groups = 1 then "" else "s"))
    else check name Fail ("down at last scrape: " ^ String.concat ", " down)

let history_checks ~dir =
  let segments = Obs.Tsdb.segments_in_dir dir in
  check_tsdb_segments dir
  @
  if segments = [] then []
  else
[ check_history_conservation segments; check_history_up segments ]

(* --- optional flow-store sweep -------------------------------------- *)

let flow_store_checks ~dir =
  let name = "flow-store sweep" in
  match Analysis.Flow_store.segments_in_dir dir with
  | [] -> [ check name Warn (Printf.sprintf "no segments under %s" dir) ]
  | segments ->
    let corrupt = ref [] in
    let records = ref 0 in
    List.iter
      (fun path ->
        match Analysis.Flow_store.query [ path ] with
        | result ->
          records :=
            !records
            + result.Analysis.Flow_store.stats
                .Analysis.Flow_store.records_scanned
        | exception Analysis.Flow_store.Corrupt msg ->
          corrupt := (path, msg) :: !corrupt)
      segments;
    (match List.rev !corrupt with
    | [] ->
      [
        check name Pass
          (Printf.sprintf "%d segment%s, %d records valid"
             (List.length segments)
             (if List.length segments = 1 then "" else "s")
             !records);
      ]
    | (path, msg) :: _ as all ->
      [
        check name Fail
          (Printf.sprintf "%d corrupt segment%s; first: %s (%s)"
             (List.length all)
             (if List.length all = 1 then "" else "s")
             (Filename.basename path) msg);
      ])

(* --- entry point ----------------------------------------------------- *)

let run ?live ?history ?flow_store () =
  let checks =
    (match live with Some port -> live_checks ~port | None -> [])
    @ (match history with Some dir -> history_checks ~dir | None -> [])
    @ match flow_store with Some dir -> flow_store_checks ~dir | None -> []
  in
  if checks = [] then begin
    prerr_endline "doctor: nothing to check (need --live PORT and/or --history DIR)";
    2
  end
  else if render checks > 0 then 1
  else 0
