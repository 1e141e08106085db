(* The live half of the observability stack: HTTP exposition, rolling
   series, threshold alerts, and span trees. *)

module Registry = Obs.Registry
module Series = Obs.Series
module Alerts = Obs.Alerts
module Span = Obs.Span
module Export = Obs.Export
module Http = Obs.Http
module Clock = Obs.Clock
module J = Obs.Export.Json

let with_fake_clock f =
  let now = ref 1000.0 in
  Clock.set_source (fun () -> !now);
  Fun.protect ~finally:Clock.reset_source (fun () -> f now)

(* --- HTTP request parsing (pure) --- *)

let test_http_parse () =
  (match Http.parse_request "GET /series.json?width=8&q=a%20b HTTP/1.1\r\nHost: x\r\nX-Seq: 7\r\n\r\n" with
  | Error s -> Alcotest.failf "parse failed: %d" s
  | Ok req ->
    Alcotest.(check string) "method" "GET" req.Http.meth;
    Alcotest.(check string) "path" "/series.json" req.Http.path;
    Alcotest.(check (list (pair string string)))
      "query decoded"
      [ ("width", "8"); ("q", "a b") ]
      req.Http.query;
    Alcotest.(check (option string)) "headers lowercased" (Some "7")
      (List.assoc_opt "x-seq" req.Http.headers));
  (match Http.parse_request "head /healthz HTTP/1.0\n\n" with
  | Ok req -> Alcotest.(check string) "method uppercased" "HEAD" req.Http.meth
  | Error _ -> Alcotest.fail "bare-LF head rejected");
  Alcotest.(check bool) "garbage is 400" true
    (Http.parse_request "not an http request\r\n\r\n" = Error 400);
  Alcotest.(check bool) "relative target is 400" true
    (Http.parse_request "GET metrics HTTP/1.1\r\n\r\n" = Error 400)

let test_http_routes () =
  let handler =
    Http.routes [ ("/metrics", fun _ -> Http.response "data\n") ]
  in
  let req meth path =
    { Http.meth; path; query = []; headers = [] }
  in
  Alcotest.(check int) "known path" 200 (handler (req "GET" "/metrics")).Http.status;
  Alcotest.(check int) "HEAD allowed" 200 (handler (req "HEAD" "/metrics")).Http.status;
  Alcotest.(check int) "unknown is 404" 404 (handler (req "GET" "/nope")).Http.status;
  Alcotest.(check int) "POST is 405" 405 (handler (req "POST" "/metrics")).Http.status

(* --- HTTP over a real socket --- *)

let raw_request ~port text =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string text in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

let test_http_socket_smoke () =
  let reg = Registry.create () in
  Registry.inc (Registry.counter reg "smoke_total" ~help:"smoke") 3.0;
  Registry.inc
    (Registry.counter reg "smoke_total" ~labels:[ ("site", "STAR") ])
    1.0;
  let collector = Series.Collector.create () in
  Series.Collector.push_point collector ~name:"smoke_rate" ~at:100.0 1.0;
  Series.Collector.push_point collector ~name:"smoke_rate" ~at:200.0 2.0;
  Series.Collector.push_point collector ~name:"other"
    ~labels:[ ("site", "STAR") ] ~at:200.0 9.0;
  let handler =
    Http.routes
      [
        ( "/metrics",
          fun _ -> Http.response (Export.to_prometheus (Registry.snapshot reg)) );
        ("/series.json", fun req -> Obs.Endpoints.series ~collector req);
      ]
  in
  let server = Http.create ~port:0 handler in
  let port = Http.port server in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let bg = Parallel.Background.spawn (fun () -> Http.run server) in
  Fun.protect
    ~finally:(fun () ->
      Http.stop server;
      match Parallel.Background.join bg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "server died: %s" (Printexc.to_string e))
    (fun () ->
      (* Scrape /metrics and round-trip through the exposition parser. *)
      (match Http.get ~port "/metrics" with
      | Error msg -> Alcotest.fail ("get /metrics: " ^ msg)
      | Ok (status, body) -> (
        Alcotest.(check int) "metrics 200" 200 status;
        match Oracle.parse_prometheus body with
        | Error msg -> Alcotest.fail ("scraped text unparseable: " ^ msg)
        | Ok lines ->
          Alcotest.(check bool) "scraped value" true
            (List.mem ("smoke_total", [ ("site", "STAR") ], 1.0) lines)));
      (* /series.json filtering over the socket, through the same
         handler the weekly service mounts. *)
      (match Http.get ~port "/series.json?since=150&name=smoke_rate" with
      | Error msg -> Alcotest.fail ("get /series.json: " ^ msg)
      | Ok (status, body) -> (
        Alcotest.(check int) "series 200" 200 status;
        match Export.Json.parse body with
        | Error msg -> Alcotest.fail ("series body unparseable: " ^ msg)
        | Ok doc ->
          let has sub =
            let n = String.length body and k = String.length sub in
            let rec go i = i + k <= n && (String.sub body i k = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "filtered series present" true
            (has "smoke_rate" && has "\"at\":200");
          Alcotest.(check bool) "since filter applied" false (has "\"at\":100");
          Alcotest.(check bool) "name filter applied" false (has "other");
          Alcotest.(check bool) "parses as an object" true
            (Export.Json.member "series" doc <> None)));
      (* Malformed query parameters are 400s, not crashes. *)
      (match Http.get ~port "/series.json?since=abc" with
      | Ok (status, _) -> Alcotest.(check int) "malformed since" 400 status
      | Error msg -> Alcotest.fail msg);
      (match Http.get ~port "/series.json?label=oops" with
      | Ok (status, _) -> Alcotest.(check int) "malformed label" 400 status
      | Error msg -> Alcotest.fail msg);
      (* Unknown path. *)
      (match Http.get ~port "/nope" with
      | Ok (status, _) -> Alcotest.(check int) "404" 404 status
      | Error msg -> Alcotest.fail msg);
      (* Oversized request head. *)
      (match Http.get ~port ("/" ^ String.make 9000 'a') with
      | Ok (status, _) -> Alcotest.(check int) "431" 431 status
      | Error msg -> Alcotest.fail msg);
      (* A client that RSTs the connection before reading the response
         (SO_LINGER 0 + close) must not take the server down via
         SIGPIPE; the next scrape still answers. *)
      (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let req = Bytes.of_string "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
       ignore (Unix.write fd req 0 (Bytes.length req));
       Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
       Unix.close fd);
      (match Http.get ~port "/metrics" with
      | Ok (status, _) ->
        Alcotest.(check int) "alive after client RST" 200 status
      | Error msg -> Alcotest.fail ("server died after client RST: " ^ msg));
      (* HEAD: status line + headers, no body. *)
      let raw = raw_request ~port "HEAD /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
      Alcotest.(check bool) "HEAD is 200" true
        (String.length raw > 12 && String.sub raw 0 12 = "HTTP/1.1 200");
      let body_start =
        let rec find i =
          if i + 4 > String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        find 0
      in
      Alcotest.(check int) "HEAD has empty body" (String.length raw) body_start)

(* --- rolling series --- *)

let test_series_window () =
  let s = Series.create ~name:"x" () in
  for i = 1 to 514 do
    Series.push s ~at:(float_of_int i) (float_of_int (10 * i))
  done;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "evicts to the newest 512, oldest first"
    (List.init 512 (fun i -> (float_of_int (i + 3), float_of_int (10 * (i + 3)))))
    (List.map (fun p -> (p.Series.at, p.Series.value)) (Series.points s));
  Alcotest.(check int) "sparkline width" 2
    (let line = Series.sparkline ~width:2 s in
     (* Each block glyph is 3 UTF-8 bytes. *)
     String.length line / 3);
  Alcotest.(check string) "flat series renders low blocks" "\u{2581}\u{2581}"
    (let f = Series.create ~name:"flat" () in
     Series.push f ~at:1.0 5.0;
     Series.push f ~at:2.0 5.0;
     Series.sparkline f)

(* A registry exercising every derived series. *)
let feed reg ~offered ~dropped ~stored ~busy ~success ~queue_wait =
  let c name labels v =
    if v > 0.0 then Registry.inc (Registry.counter reg name ~labels) v
  in
  c "ledger_offered_frames_total" [ ("site", "STAR") ] offered;
  c "ledger_stored_frames_total" [ ("site", "STAR") ] (offered -. dropped);
  c "ledger_attributed_frames_total"
    [ ("site", "STAR"); ("cause", "switch_drop") ]
    dropped;
  c "capture_stored_bytes_total" [] stored;
  c "pool_domain_busy_seconds_total" [ ("domain", "0") ] busy;
  c "occasion_sites_total" [ ("outcome", "success") ] success;
  if queue_wait > 0.0 then
    Registry.observe (Registry.histogram reg "pool_queue_wait_seconds") queue_wait

let test_collector_derivation () =
  with_fake_clock @@ fun now ->
  let reg = Registry.create () in
  let col = Series.Collector.create () in
  feed reg ~offered:1000.0 ~dropped:0.0 ~stored:0.0 ~busy:0.0 ~success:1.0
    ~queue_wait:0.0;
  Series.Collector.collect col ~at:100.0 reg;
  Alcotest.(check int) "baseline emits nothing" 0
    (List.length (Series.Collector.series col));
  (* One occasion later: 10% drop, 5000 B over 100 sim-seconds, domain
     busy 5 of 10 wall-seconds, 2 successes, one 0.3 s queue wait. *)
  now := !now +. 10.0;
  feed reg ~offered:1000.0 ~dropped:100.0 ~stored:5000.0 ~busy:5.0 ~success:2.0
    ~queue_wait:0.3;
  Series.Collector.collect col ~at:200.0 reg;
  let point name labels =
    match
      List.find_opt
        (fun s -> Series.name s = name && Series.labels s = labels)
        (Series.Collector.series col)
    with
    | Some s -> Option.map (fun p -> p.Series.value) (Series.last s)
    | None -> None
  in
  Alcotest.(check (option (float 1e-9))) "site drop rate" (Some 0.1)
    (point "site_drop_rate" [ ("site", "STAR") ]);
  Alcotest.(check (option (float 1e-9))) "captured B/s" (Some 50.0)
    (point "captured_bytes_per_s" []);
  Alcotest.(check (option (float 1e-9))) "pool busy fraction" (Some 0.5)
    (point "pool_busy_fraction" []);
  Alcotest.(check (option (float 1e-9))) "outcome count" (Some 2.0)
    (point "occasion_outcome_count" [ ("outcome", "success") ]);
  (match point "pool_queue_wait_p99" [] with
  | Some v -> Alcotest.(check bool) "p99 covers the observation" true (v >= 0.3)
  | None -> Alcotest.fail "queue-wait p99 missing");
  (* A quiet round: rates return to zero, p99 reports no waiting. *)
  now := !now +. 10.0;
  Series.Collector.collect col ~at:300.0 reg;
  Alcotest.(check (option (float 1e-9))) "drop rate decays" (Some 0.0)
    (point "site_drop_rate" [ ("site", "STAR") ]);
  Alcotest.(check (option (float 1e-9))) "p99 decays" (Some 0.0)
    (point "pool_queue_wait_p99" [])

(* --- alerts --- *)

let test_rule_parsing () =
  (match Alerts.rule_of_string "site_drop_rate > 0.05 for 3" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check string) "series" "site_drop_rate" r.Alerts.series_name;
    Alcotest.(check bool) "op" true (r.Alerts.op = Alerts.Gt);
    Alcotest.(check (float 1e-9)) "threshold" 0.05 r.Alerts.threshold;
    Alcotest.(check int) "for" 3 r.Alerts.for_count);
  (match Alerts.rule_of_string "pool_queue_wait_p99 < 2" with
  | Ok r -> Alcotest.(check int) "default for" 1 r.Alerts.for_count
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "bad comparator rejected" true
    (Result.is_error (Alerts.rule_of_string "x >= 1"));
  Alcotest.(check bool) "bad threshold rejected" true
    (Result.is_error (Alerts.rule_of_string "x > lots"));
  Alcotest.(check bool) "bad for rejected" true
    (Result.is_error (Alerts.rule_of_string "x > 1 for zero"))

(* Inject mirror congestion (sustained switch drops), watch the alert
   fire after three consecutive violating occasions, then recover and
   watch it clear — mirroring the acceptance scenario end to end. *)
let test_alert_fires_and_clears () =
  with_fake_clock @@ fun now ->
  let reg = Registry.create () in
  let col = Series.Collector.create () in
  let rule =
    Alerts.rule ~series:"site_drop_rate" ~op:Alerts.Gt ~threshold:0.05
      ~for_count:3 ()
  in
  let alerts = Alerts.create ~registry:reg [ rule ] in
  let gauge () =
    Registry.value reg "patchwork_alert_active"
      ~labels:[ ("rule", rule.Alerts.rule_name); ("site", "STAR") ]
  in
  let occasion ~at ~dropped =
    now := !now +. 10.0;
    feed reg ~offered:1000.0 ~dropped ~stored:0.0 ~busy:0.0 ~success:1.0
      ~queue_wait:0.0;
    Series.Collector.collect col ~at reg;
    Alerts.evaluate alerts ~at col
  in
  Series.Collector.collect col ~at:0.0 reg;
  (* Congested occasions 1-2: violating but below for_count. *)
  Alcotest.(check int) "no event on 1st violation" 0
    (List.length (occasion ~at:100.0 ~dropped:100.0));
  Alcotest.(check int) "no event on 2nd violation" 0
    (List.length (occasion ~at:200.0 ~dropped:100.0));
  Alcotest.(check bool) "not yet active" true (Alerts.active alerts = []);
  (* Re-evaluating without a new collection must not re-count the same
     stale point toward "for 3". *)
  Alcotest.(check int) "stale re-evaluate emits nothing" 0
    (List.length (Alerts.evaluate alerts ~at:250.0 col));
  Alcotest.(check int) "stale re-evaluate again" 0
    (List.length (Alerts.evaluate alerts ~at:260.0 col));
  Alcotest.(check bool) "still not active after stale rounds" true
    (Alerts.active alerts = []);
  (* 3rd consecutive violation: fires. *)
  (match occasion ~at:300.0 ~dropped:100.0 with
  | [ e ] ->
    Alcotest.(check bool) "fired" true (e.Alerts.ev_transition = Alerts.Fired);
    Alcotest.(check (float 1e-9)) "violating value" 0.1 e.Alerts.ev_value;
    Alcotest.(check (list (pair string string))) "labelled per site"
      [ ("site", "STAR") ] e.Alerts.ev_labels;
    Alcotest.(check bool) "log line mentions the rule" true
      (let line = Alerts.event_to_string e in
       String.length line > 0
       && String.sub line 0 11 = "ALERT fired")
  | l -> Alcotest.failf "expected one Fired event, got %d" (List.length l));
  Alcotest.(check int) "one active" 1 (List.length (Alerts.active alerts));
  Alcotest.(check bool) "gauge raised" true (gauge () = Some (Registry.Gauge 1.0));
  (* Still violating: no duplicate event. *)
  Alcotest.(check int) "no re-fire while active" 0
    (List.length (occasion ~at:400.0 ~dropped:100.0));
  (* Recovery: clears immediately. *)
  (match occasion ~at:500.0 ~dropped:0.0 with
  | [ e ] ->
    Alcotest.(check bool) "cleared" true (e.Alerts.ev_transition = Alerts.Cleared)
  | l -> Alcotest.failf "expected one Cleared event, got %d" (List.length l));
  Alcotest.(check bool) "gauge lowered" true (gauge () = Some (Registry.Gauge 0.0));
  Alcotest.(check bool) "nothing active" true (Alerts.active alerts = [])

(* --- span trees --- *)

(* A span keeps every child it ever had: there is no bound on a span's
   children, only on a tracer's finished roots. *)
let test_span_keeps_every_child () =
  let t = Span.create () in
  Span.with_span t "root" (fun root ->
      for i = 1 to 50 do
        Span.with_span t (string_of_int i) ignore
      done;
      Alcotest.(check (list string)) "every child kept, oldest first"
        (List.init 50 (fun i -> string_of_int (i + 1)))
        (List.map Span.name (Span.children root)))

(* Random span forests: the exported trace stream stays balanced,
   every "B" has its "E", properly nested. *)
let qcheck_trace_events_balanced =
  QCheck.Test.make ~name:"trace events balanced B/E" ~count:50
    QCheck.(int_range 1 20)
    (fun fanout ->
      with_fake_clock @@ fun now ->
      let t = Span.create () in
      Span.with_span t "root" (fun _ ->
          for i = 1 to fanout do
            Span.with_span t ("mid" ^ string_of_int i) (fun _ ->
                for j = 1 to fanout do
                  let sp = Span.start t ("leaf" ^ string_of_int j) in
                  now := !now +. 0.5;
                  Span.finish t sp
                done)
          done);
      let text = Export.trace_events_string (Span.roots t) in
      match J.parse text with
      | Error _ -> false
      | Ok doc -> (
        match J.member "traceEvents" doc with
        | Some (J.Arr events) ->
          let depth = ref 0 and ok = ref true and b = ref 0 and e = ref 0 in
          List.iter
            (fun ev ->
              match Option.bind (J.member "ph" ev) J.to_str with
              | Some "B" ->
                incr b;
                incr depth
              | Some "E" ->
                incr e;
                decr depth;
                if !depth < 0 then ok := false
              | _ -> ())
            events;
          !ok && !depth = 0 && !b = !e && !b > 0
        | _ -> false))

let suites =
  [
    ( "live.http",
      [
        Alcotest.test_case "request parsing" `Quick test_http_parse;
        Alcotest.test_case "routing" `Quick test_http_routes;
        Alcotest.test_case "socket smoke" `Quick test_http_socket_smoke;
      ] );
    ( "live.series",
      [
        Alcotest.test_case "rolling window" `Quick test_series_window;
        Alcotest.test_case "collector derivation" `Quick test_collector_derivation;
      ] );
    ( "live.alerts",
      [
        Alcotest.test_case "rule parsing" `Quick test_rule_parsing;
        Alcotest.test_case "fires and clears" `Quick test_alert_fires_and_clears;
      ] );
    ( "live.span-sampling",
      [
        Alcotest.test_case "unbounded by default" `Quick
          test_span_keeps_every_child;
        QCheck_alcotest.to_alcotest qcheck_trace_events_balanced;
      ] );
  ]
