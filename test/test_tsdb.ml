(* The persistent telemetry store: segment wire format (pinned by an
   independent encoder), corruption rejection, kill-and-resume
   determinism, alert re-arming, and the filterable /series.json
   endpoint. *)

module T = Obs.Tsdb
module Segment = Obs.Segment
module Registry = Obs.Registry
module Series = Obs.Series
module Alerts = Obs.Alerts
module Http = Obs.Http
module Clock = Obs.Clock
module J = Obs.Export.Json

let with_temp_dir f =
  let dir = Filename.temp_file "patchwork_tsdb" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun x -> Sys.remove (Filename.concat dir x))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let raw ?(name = "x") ?(labels = []) ~at value = T.raw_point ~name ~labels ~at value

(* --- independent hand-rolled encoder ------------------------------- *)

(* Pins the documented wire format itself, not the implementation. *)
let enc_str b s =
  Buffer.add_uint16_le b (String.length s);
  Buffer.add_string b s

let enc_head b ~name ~labels =
  enc_str b name;
  Buffer.add_uint8 b (List.length labels);
  List.iter
    (fun (k, v) ->
      enc_str b k;
      enc_str b v)
    labels

let enc_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let enc_raw b ~name ~labels ~at ~value =
  enc_head b ~name ~labels;
  Buffer.add_uint8 b 0;
  enc_f64 b at;
  enc_f64 b value

(* The layout an older writer gave a downsampled bucket (kind 1), which
   the reader must refuse rather than misread. *)
let enc_bucket b ~name ~labels ~start ~res ~count ~sum ~min ~max ~last ~last_at =
  enc_head b ~name ~labels;
  Buffer.add_uint8 b 1;
  enc_f64 b start;
  enc_f64 b res;
  Buffer.add_int32_le b (Int32.of_int count);
  enc_f64 b sum;
  enc_f64 b min;
  enc_f64 b max;
  enc_f64 b last;
  enc_f64 b last_at

let encode_segment ?count body =
  let b = Buffer.create 256 in
  Buffer.add_string b "PWTS";
  Buffer.add_uint16_le b 1;
  (match count with
  | Some n -> Buffer.add_int32_le b (Int32.of_int n)
  | None -> Buffer.add_int32_le b (-1l) (* unsealed marker *));
  body b;
  Buffer.contents b

(* --- segment format ------------------------------------------------ *)

let test_segment_roundtrip () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "seg.pwts" in
  (* Deliberately unsorted input: write sorts by (name, labels, at). *)
  let records =
    [
      raw ~name:"b" ~at:5.0 50.0;
      raw ~name:"a" ~labels:[ ("site", "STAR") ] ~at:2.0 0.25;
      raw ~name:"a" ~labels:[ ("site", "STAR") ] ~at:1.0 (-3.5);
    ]
  in
  let size = Segment.write T.schema path records in
  Alcotest.(check int) "size matches file" (String.length (read_file path)) size;
  match Segment.read_all T.schema path with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check bool) "sorted by (name, labels, at), fields exact" true
      (back
      = [
          raw ~name:"a" ~labels:[ ("site", "STAR") ] ~at:1.0 (-3.5);
          raw ~name:"a" ~labels:[ ("site", "STAR") ] ~at:2.0 0.25;
          raw ~name:"b" ~at:5.0 50.0;
        ])

let test_segment_format_pinned () =
  with_temp_dir @@ fun dir ->
  (* Direction 1: the library reads what the independent encoder wrote. *)
  let path = Filename.concat dir "pinned.pwts" in
  write_file path
    (encode_segment ~count:2 (fun b ->
         enc_raw b ~name:"captured_bytes_per_s" ~labels:[] ~at:5400.0
           ~value:2.5;
         enc_raw b ~name:"site_drop_rate"
           ~labels:[ ("site", "STAR") ]
           ~at:7200.0 ~value:0.125));
  (match Segment.read_all T.schema path with
  | Error e -> Alcotest.fail e
  | Ok [ first; point ] ->
    Alcotest.(check string) "first name" "captured_bytes_per_s" first.T.t_name;
    Alcotest.(check (list (pair string string))) "first labels" [] first.T.t_labels;
    Alcotest.(check (float 0.0)) "first at" 5400.0 first.T.t_at;
    Alcotest.(check (float 0.0)) "first value" 2.5 first.T.t_value;
    Alcotest.(check bool) "labelled record exact" true
      (point = raw ~name:"site_drop_rate" ~labels:[ ("site", "STAR") ] ~at:7200.0 0.125)
  | Ok l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  (* Direction 2: the library writes byte-for-byte what the independent
     encoder predicts. *)
  let path2 = Filename.concat dir "written.pwts" in
  let _ =
    Segment.write T.schema path2
      [
        raw ~name:"up" ~labels:[ ("site", "WASH") ] ~at:10.0 1.0;
        raw ~name:"up" ~labels:[ ("site", "WASH") ] ~at:20.0 0.0;
      ]
  in
  let expected =
    encode_segment ~count:2 (fun b ->
        enc_raw b ~name:"up" ~labels:[ ("site", "WASH") ] ~at:10.0 ~value:1.0;
        enc_raw b ~name:"up" ~labels:[ ("site", "WASH") ] ~at:20.0 ~value:0.0)
  in
  Alcotest.(check bool) "writer output byte-identical to spec" true
    (read_file path2 = expected)

(* Two sources reporting the same series at the same instant produce
   duplicate-keyed records; the writer keeps them adjacent and the
   reader must accept its own writer's output. *)
let test_segment_duplicate_keys_roundtrip () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "dup.pwts" in
  let twice = [ raw ~name:"x" ~at:5.0 1.0; raw ~name:"x" ~at:5.0 1.0 ] in
  let _ = Segment.write T.schema path twice in
  match Segment.read_all T.schema path with
  | Error e -> Alcotest.fail ("duplicate keys rejected: " ^ e)
  | Ok back -> Alcotest.(check bool) "both read back" true (back = twice)

let check_error path sub =
  match Segment.read_all T.schema path with
  | Ok _ -> Alcotest.fail ("expected Error mentioning " ^ sub)
  | Error e ->
    let present =
      let ls = String.lowercase_ascii e and lsub = String.lowercase_ascii sub in
      let n = String.length ls and m = String.length lsub in
      let rec at i = i + m <= n && (String.sub ls i m = lsub || at (i + 1)) in
      at 0
    in
    if not present then Alcotest.fail (Printf.sprintf "%S not in %S" sub e);
    Alcotest.(check bool) "names the file" true
      (String.length e >= String.length path
      && String.sub e 0 (String.length path) = path)

let test_segment_corruption_rejected () =
  with_temp_dir @@ fun dir ->
  let path name = Filename.concat dir name in
  write_file (path "magic.pwts") "NOPE\x01\x00\x00\x00\x00\x00";
  check_error (path "magic.pwts") "bad magic";
  write_file (path "vers.pwts") "PWTS\x63\x00\x00\x00\x00\x00";
  check_error (path "vers.pwts") "version 99";
  write_file (path "short.pwts") "PWT";
  check_error (path "short.pwts") "shorter than the header";
  (* A header still holding the marker an older writer streamed behind
     is refused, like any segment cut short. *)
  write_file (path "marker.pwts")
    (encode_segment (fun b -> enc_raw b ~name:"a" ~labels:[] ~at:1.0 ~value:1.0));
  check_error (path "marker.pwts") "unsealed segment";
  let whole =
    encode_segment ~count:2 (fun b ->
        enc_raw b ~name:"a" ~labels:[] ~at:1.0 ~value:1.0;
        enc_raw b ~name:"a" ~labels:[] ~at:2.0 ~value:2.0)
  in
  write_file (path "trunc.pwts") (String.sub whole 0 (String.length whole - 5));
  check_error (path "trunc.pwts") "cut short at record 2/2";
  write_file (path "trail.pwts")
    (encode_segment ~count:1 (fun b ->
         enc_raw b ~name:"a" ~labels:[] ~at:1.0 ~value:1.0)
    ^ "junk");
  check_error (path "trail.pwts") "trailing garbage";
  write_file (path "unsorted.pwts")
    (encode_segment ~count:2 (fun b ->
         enc_raw b ~name:"b" ~labels:[] ~at:1.0 ~value:1.0;
         enc_raw b ~name:"a" ~labels:[] ~at:2.0 ~value:2.0));
  check_error (path "unsorted.pwts") "not sorted at record 2";
  write_file (path "kind.pwts")
    (encode_segment ~count:1 (fun b ->
         enc_head b ~name:"a" ~labels:[];
         Buffer.add_uint8 b 7;
         enc_f64 b 1.0;
         enc_f64 b 1.0));
  check_error (path "kind.pwts") "invalid record kind 0x07";
  write_file (path "labels.pwts")
    (encode_segment ~count:1 (fun b ->
         enc_raw b ~name:"a"
           ~labels:[ ("z", "1"); ("a", "2") ]
           ~at:1.0 ~value:1.0));
  check_error (path "labels.pwts") "labels not sorted";
  (* A store an older build downsampled holds kind-1 buckets: refused,
     never read as points. *)
  write_file (path "bucket.pwts")
    (encode_segment ~count:1 (fun b ->
         enc_bucket b ~name:"a" ~labels:[] ~start:0.0 ~res:60.0 ~count:2
           ~sum:3.0 ~min:1.0 ~max:2.0 ~last:2.0 ~last_at:5.0));
  check_error (path "bucket.pwts") "invalid record kind 0x01"

(* --- restart survival ---------------------------------------------- *)

let test_restart_byte_identical () =
  with_temp_dir @@ fun dir_a ->
  with_temp_dir @@ fun dir_b ->
  let rounds =
    [
      [ ("up", 10.0, 1.0); ("drop", 10.0, 0.01) ];
      [ ("up", 20.0, 1.0); ("drop", 20.0, 0.12) ];
      [ ("up", 30.0, 0.0); ("drop", 30.0, 0.2) ];
    ]
  in
  let feed store round =
    List.iter (fun (name, at, v) -> T.append_point store ~name ~at v) round;
    ignore (T.flush store)
  in
  (* A: uninterrupted service. *)
  let a = T.open_store ~dir:dir_a () in
  List.iter (feed a) rounds;
  (* B: killed during its next flush after every round, which leaves
     that segment's temporary cut short, and reopened. *)
  let kill dir =
    let segments = T.segments_in_dir dir in
    let last = read_file (List.nth segments (List.length segments - 1)) in
    write_file
      (Filename.concat dir
         (Printf.sprintf "tsdb-%06d.pwts.tmp" (List.length segments)))
      (String.sub last 0 (String.length last / 2))
  in
  List.iter
    (fun round ->
      feed (T.open_store ~dir:dir_b ()) round;
      kill dir_b)
    rounds;
  (* Same segment files, byte for byte. *)
  let names d = List.map Filename.basename (T.segments_in_dir d) in
  Alcotest.(check (list string)) "same segment names" (names dir_a) (names dir_b);
  List.iter2
    (fun pa pb ->
      Alcotest.(check bool)
        (Filename.basename pa ^ " byte-identical")
        true
        (read_file pa = read_file pb))
    (T.segments_in_dir dir_a) (T.segments_in_dir dir_b);
  (* And the pre-kill window answers identically through the query path. *)
  let pred = T.predicate ~since:10.0 ~until:20.0 ()
  and a2 = T.open_store ~dir:dir_a ()
  and b2 = T.open_store ~dir:dir_b () in
  Alcotest.(check bool) "range query identical" true
    (T.query_store ~pred a2 = T.query_store ~pred b2);
  Alcotest.(check (list string)) "temporary deleted at open" (names dir_a)
    (List.sort compare (Array.to_list (Sys.readdir dir_b)))

let test_alert_rearm_matches_uninterrupted () =
  let rule =
    Alerts.rule ~series:"site_drop_rate" ~op:Alerts.Gt ~threshold:0.05
      ~for_count:2 ()
  in
  let points =
    [ (100.0, 0.01); (200.0, 0.09); (300.0, 0.1); (400.0, 0.08) ]
  in
  let labels = [ ("site", "STAR") ] in
  (* Uninterrupted: evaluate after every collected point. *)
  let reg_a = Registry.create () in
  let col_a = Series.Collector.create () in
  let al_a = Alerts.create ~registry:reg_a [ rule ] in
  List.iter
    (fun (at, v) ->
      Series.Collector.push_point col_a ~name:"site_drop_rate" ~labels ~at v;
      ignore (Alerts.evaluate al_a ~at col_a))
    points;
  (* Killed after the last point was persisted; a fresh service re-arms
     from the stored tail. *)
  with_temp_dir @@ fun dir ->
  let store = T.open_store ~dir () in
  List.iter
    (fun (at, v) -> T.append_point store ~name:"site_drop_rate" ~labels ~at v)
    points;
  ignore (T.flush store);
  let reg_b = Registry.create () in
  let al_b = Alerts.create ~registry:reg_b [ rule ] in
  ignore (Alerts.rearm al_b (T.tail_store ~n:(rule.Alerts.for_count + 1) store));
  let state al =
    List.map
      (fun (r, ls, v) -> (r.Alerts.rule_name, ls, v))
      (Alerts.active al)
  in
  Alcotest.(check bool) "firing after re-arm" true (state al_a <> []);
  Alcotest.(check bool) "active set identical" true (state al_a = state al_b);
  let gauge reg =
    Registry.value reg "patchwork_alert_active"
      ~labels:(("rule", rule.Alerts.rule_name) :: labels)
  in
  Alcotest.(check bool) "gauge identical" true (gauge reg_a = gauge reg_b);
  (* Both services watch recovery happen the same way. *)
  let col_b = Series.Collector.create () in
  let next at v col al =
    Series.Collector.push_point col ~name:"site_drop_rate" ~labels ~at v;
    Alerts.evaluate al ~at col
  in
  let ev_a = next 500.0 0.0 col_a al_a and ev_b = next 500.0 0.0 col_b al_b in
  Alcotest.(check bool) "clear transition identical" true
    (List.map (fun e -> (e.Alerts.ev_rule, e.Alerts.ev_labels, e.Alerts.ev_value, e.Alerts.ev_transition)) ev_a
    = List.map (fun e -> (e.Alerts.ev_rule, e.Alerts.ev_labels, e.Alerts.ev_value, e.Alerts.ev_transition)) ev_b
    && List.length ev_a = 1);
  Alcotest.(check bool) "both idle after clear" true
    (state al_a = [] && state al_b = [])

(* --- the /series.json endpoint over store + memory ----------------- *)

let req ?(query = []) path = { Http.meth = "GET"; path; query; headers = [] }

let body_of (resp : Http.response) = resp.Http.body

let test_series_endpoint_history_and_filters () =
  with_temp_dir @@ fun dir ->
  let store = T.open_store ~dir () in
  (* History on disk: two rounds flushed before the "restart"... *)
  List.iter
    (fun (at, v) -> T.append_point store ~name:"captured_bytes_per_s" ~at v)
    [ (100.0, 10.0); (200.0, 20.0) ];
  T.append_point store ~name:"up" ~labels:[ ("site", "STAR") ] ~at:200.0 1.0;
  ignore (T.flush store);
  (* ...and a fresh collector that only saw the post-restart round. *)
  let col = Series.Collector.create () in
  Series.Collector.push_point col ~name:"captured_bytes_per_s" ~at:300.0 30.0;
  let get ?query () =
    match Obs.Endpoints.series ~tsdb:store ~collector:col (req ?query "/series.json") with
    | resp when resp.Http.status = 200 -> (
      match J.parse (body_of resp) with
      | Ok doc -> doc
      | Error e -> Alcotest.fail ("unparseable body: " ^ e))
    | resp -> Alcotest.failf "expected 200, got %d" resp.Http.status
  in
  let points_of doc name =
    match J.member "series" doc with
    | Some (J.Arr items) ->
      List.concat_map
        (fun item ->
          if Option.bind (J.member "name" item) J.to_str = Some name then
            match J.member "points" item with
            | Some (J.Arr ps) ->
              List.filter_map
                (fun p ->
                  match
                    ( Option.bind (J.member "at" p) J.to_float,
                      Option.bind (J.member "value" p) J.to_float )
                  with
                  | Some at, Some v -> Some (at, v)
                  | _ -> None)
                ps
            | _ -> []
          else [])
        items
    | _ -> []
  in
  (* Unfiltered: history + memory, oldest first, seamless. *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "history prepended to memory"
    [ (100.0, 10.0); (200.0, 20.0); (300.0, 30.0) ]
    (points_of (get ()) "captured_bytes_per_s");
  (* ?since= cuts history; ?name= drops other series. *)
  let doc = get ~query:[ ("since", "150"); ("name", "captured_bytes_per_s") ] () in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "since filter"
    [ (200.0, 20.0); (300.0, 30.0) ]
    (points_of doc "captured_bytes_per_s");
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "name filter" [] (points_of doc "up");
  (* Label filter keeps only the site-labelled series. *)
  let doc = get ~query:[ ("label", "site=STAR") ] () in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "label filter" [ (200.0, 1.0) ] (points_of doc "up");
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "label filter drops unlabelled" []
    (points_of doc "captured_bytes_per_s");
  (* Malformed parameters are 400, not 500 and not silently ignored. *)
  let status query =
    (Obs.Endpoints.series ~tsdb:store ~collector:col (req ~query "/series.json"))
      .Http.status
  in
  Alcotest.(check int) "malformed since" 400 (status [ ("since", "yesterday") ]);
  Alcotest.(check int) "malformed until" 400 (status [ ("until", "nan") ]);
  Alcotest.(check int) "malformed label" 400 (status [ ("label", "no-equals") ]);
  Alcotest.(check int) "well-formed still 200" 200 (status [ ("since", "-1e3") ])

(* The endpoint's answer for a pre-kill window is identical before a
   kill and after a restart — served bytes included. *)
let test_series_endpoint_restart_identity () =
  with_temp_dir @@ fun dir ->
  let store = T.open_store ~dir () in
  List.iter
    (fun (at, v) -> T.append_point store ~name:"x" ~at v)
    [ (10.0, 1.0); (20.0, 2.0) ];
  ignore (T.flush store);
  let empty_col = Series.Collector.create () in
  let serve store =
    body_of
      (Obs.Endpoints.series ~tsdb:store ~collector:empty_col
         (req ~query:[ ("until", "20") ] "/series.json"))
  in
  let before = serve store in
  (* Kill during the next flush: its temporary is left cut short. *)
  let whole =
    encode_segment ~count:2 (fun b ->
        enc_raw b ~name:"x" ~labels:[] ~at:30.0 ~value:3.0;
        enc_raw b ~name:"x" ~labels:[] ~at:40.0 ~value:4.0)
  in
  write_file
    (Filename.concat dir "tsdb-000001.pwts.tmp")
    (String.sub whole 0 (String.length whole - 7));
  let reopened = T.open_store ~dir () in
  Alcotest.(check (list string)) "temporary deleted" [ "tsdb-000000.pwts" ]
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check string) "pre-kill window byte-identical" before
    (serve reopened);
  (* Nothing of the uncommitted write is served. *)
  Alcotest.(check int) "uncommitted points not served" 0
    (List.length (T.query_store ~pred:(T.predicate ~since:25.0 ()) reopened))

(* --- killed flush --------------------------------------------------- *)

let dir_listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

let counter_value name =
  match Registry.value Registry.default name with
  | Some (Registry.Counter v) -> v
  | _ -> 0.0

(* Opening a store deletes the temporary a flush killed before its
   rename left, counting it, and the store then writes the bytes an
   uncrashed one does. *)
let test_open_removes_uncommitted () =
  with_temp_dir @@ fun dir_a ->
  with_temp_dir @@ fun dir_b ->
  let round k =
    List.init 10 (fun i ->
        (float_of_int ((100 * k) + (7 * i)), float_of_int (k + i)))
  in
  let feed store k =
    List.iter (fun (at, v) -> T.append_point store ~name:"x" ~at v) (round k);
    ignore (T.flush store)
  in
  (* A: uninterrupted. *)
  let a = T.open_store ~dir:dir_a () in
  List.iter (feed a) [ 0; 1; 2; 3 ];
  let b = T.open_store ~dir:dir_b () in
  List.iter (feed b) [ 0; 1; 2 ];
  (* Killed during the next flush: its temporary, cut short. *)
  let next = Filename.concat dir_b "tsdb-000003.pwts" in
  ignore
    (Segment.write T.schema next
       (List.map (fun (at, v) -> raw ~at v) (round 3)));
  let bytes = read_file next in
  Sys.remove next;
  write_file (next ^ ".tmp") (String.sub bytes 0 (String.length bytes / 2));
  let uncommitted = counter_value "tsdb_segments_removed_total" in
  let b = T.open_store ~dir:dir_b () in
  Alcotest.(check bool) "temporary deleted" false
    (Sys.file_exists (next ^ ".tmp"));
  Alcotest.(check (float 0.0)) "temporary counted" (uncommitted +. 1.0)
    (counter_value "tsdb_segments_removed_total");
  feed b 3;
  Alcotest.(check (list string)) "same files as uncrashed" (dir_listing dir_a)
    (dir_listing dir_b);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " byte-identical") true
        (read_file (Filename.concat dir_a f)
        = read_file (Filename.concat dir_b f)))
    (dir_listing dir_a)

let suites =
  [
    ( "tsdb.segment",
      [
        Alcotest.test_case "roundtrip" `Quick test_segment_roundtrip;
        Alcotest.test_case "duplicate keys roundtrip" `Quick
          test_segment_duplicate_keys_roundtrip;
        Alcotest.test_case "format pinned both ways" `Quick
          test_segment_format_pinned;
        Alcotest.test_case "corruption rejected" `Quick
          test_segment_corruption_rejected;
      ] );
    ( "tsdb.restart",
      [
        Alcotest.test_case "byte-identical after kill+resume" `Quick
          test_restart_byte_identical;
        Alcotest.test_case "alert re-arm matches uninterrupted" `Quick
          test_alert_rearm_matches_uninterrupted;
        Alcotest.test_case "endpoint restart identity" `Quick
          test_series_endpoint_restart_identity;
        Alcotest.test_case "open deletes uncommitted files" `Quick
          test_open_removes_uncommitted;
      ] );
    ( "tsdb.endpoint",
      [
        Alcotest.test_case "history + filters + 400s" `Quick
          test_series_endpoint_history_and_filters;
      ] );
  ]
