module Registry = Obs.Registry
module Span = Obs.Span
module Export = Obs.Export
module J = Obs.Export.Json
module Logging = Patchwork.Logging

(* --- registry --- *)

let test_counter_gauge () =
  let r = Registry.create () in
  let c = Registry.counter r "reqs_total" ~help:"requests" in
  Registry.incr c;
  Registry.inc c 4.0;
  Alcotest.(check bool) "counter value" true
    (Registry.value r "reqs_total" = Some (Registry.Counter 5.0));
  Alcotest.check_raises "negative inc rejected"
    (Invalid_argument "Obs.Registry.inc: negative increment") (fun () ->
      Registry.inc c (-1.0));
  let g = Registry.gauge r "depth" in
  Registry.set g 5.0;
  Alcotest.(check bool) "gauge value" true
    (Registry.value r "depth" = Some (Registry.Gauge 5.0));
  (* Same name, different kind: rejected. *)
  Alcotest.(check bool) "kind clash raises" true
    (match Registry.gauge r "reqs_total" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_labels_canonical () =
  let r = Registry.create () in
  let a = Registry.counter r "x" ~labels:[ ("b", "2"); ("a", "1") ] in
  let b = Registry.counter r "x" ~labels:[ ("a", "1"); ("b", "2") ] in
  Registry.incr a;
  Registry.incr b;
  (* Label order is canonicalized, so both handles hit the same cell. *)
  Alcotest.(check bool) "one cell" true
    (Registry.value r "x" ~labels:[ ("a", "1"); ("b", "2") ]
    = Some (Registry.Counter 2.0));
  Alcotest.(check int) "one sample" 1 (List.length (Registry.snapshot r))

let test_histogram_buckets () =
  let r = Registry.create () in
  let h = Registry.histogram r "lat" in
  List.iter (Registry.observe h) [ 0.5; 1.0; 1.0; 3.0; 1e12 ];
  match Registry.value r "lat" with
  | Some (Registry.Histogram hs) ->
    Alcotest.(check int) "count" 5 hs.Registry.h_count;
    Alcotest.(check (float 1e-9)) "sum" (0.5 +. 1.0 +. 1.0 +. 3.0 +. 1e12)
      hs.Registry.h_sum;
    (* Cumulative and capped by the +Inf bucket. *)
    let les, cums = List.split hs.Registry.h_buckets in
    Alcotest.(check bool) "ends at +Inf" true (List.exists (( = ) infinity) les);
    Alcotest.(check bool) "monotone" true
      (List.for_all2 ( <= ) cums (List.tl cums @ [ hs.Registry.h_count ]));
    Alcotest.(check int) "+Inf cumulative = count" hs.Registry.h_count
      (List.assoc infinity hs.Registry.h_buckets)
  | _ -> Alcotest.fail "histogram missing"

let test_disabled_noop () =
  let r = Registry.create () in
  let c = Registry.counter r "c" in
  Registry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled true)
    (fun () ->
      Registry.incr c;
      let t = Span.create () in
      Span.with_span t "s" (fun sp -> Span.annotate sp "k" "v");
      Alcotest.(check bool) "counter untouched" true
        (Registry.value r "c" = Some (Registry.Counter 0.0));
      Alcotest.(check int) "no spans recorded" 0 (List.length (Span.roots t)))

(* --- exposition round-trips --- *)

let populated_registry () =
  let r = Registry.create () in
  Registry.inc (Registry.counter r "frames_total" ~help:"Captured frames") 12345.0;
  Registry.inc
    (Registry.counter r "frames_total" ~labels:[ ("site", "STAR") ])
    17.0;
  Registry.set
    (Registry.gauge r "queue_depth" ~help:"Pending grant\nrequests"
       ~labels:[ ("site", "a\"b\\c") ])
    3.0;
  let h = Registry.histogram r "stage_seconds" ~labels:[ ("stage", "digest") ] in
  List.iter (Registry.observe h) [ 0.25; 1.0; 1.5; 300.0 ];
  r

let test_prometheus_roundtrip () =
  let snap = Registry.snapshot (populated_registry ()) in
  let text = Export.to_prometheus snap in
  match Oracle.parse_prometheus text with
  | Error msg -> Alcotest.fail ("parse_prometheus: " ^ msg)
  | Ok lines ->
    Alcotest.(check int) "line count survives" (List.length (Export.flatten snap))
      (List.length lines);
    Alcotest.(check bool) "data lines round-trip" true
      (lines = Export.flatten snap)

let test_json_roundtrip () =
  let r = populated_registry () in
  let t = Span.create () in
  Span.with_span t "occasion" (fun occ ->
      Span.annotate occ "sites" "3";
      Span.with_span t "occasion.setup" ignore);
  let text = Export.to_json_string ~spans:(Span.roots t) (Registry.snapshot r) in
  match J.parse text with
  | Error msg -> Alcotest.fail ("Json.parse: " ^ msg)
  | Ok doc ->
    (* Re-serializing the parse is a fixpoint. *)
    Alcotest.(check string) "fixpoint" text (J.to_string doc);
    let metrics =
      match J.member "metrics" doc with Some (J.Arr l) -> l | _ -> []
    in
    let frames =
      List.find_map
        (fun m ->
          if
            J.member "name" m = Some (J.Str "frames_total")
            && J.member "labels" m = None
          then Option.bind (J.member "value" m) J.to_float
          else None)
        metrics
    in
    Alcotest.(check (option (float 1e-9))) "counter readable" (Some 12345.0)
      frames;
    (match J.member "spans" doc with
    | Some (J.Arr [ occ ]) ->
      Alcotest.(check bool) "span name" true
        (J.member "name" occ = Some (J.Str "occasion"));
      (match J.member "children" occ with
      | Some (J.Arr [ child ]) ->
        Alcotest.(check bool) "child name" true
          (J.member "name" child = Some (J.Str "occasion.setup"))
      | _ -> Alcotest.fail "child span missing")
    | _ -> Alcotest.fail "root span missing")

(* Hostile metric help text and label values — quotes, backslashes,
   newlines, the works — must survive the text exposition round trip. *)
let qcheck_prometheus_escaping =
  let hostile_string =
    QCheck.(
      string_gen_of_size
        Gen.(1 -- 12)
        Gen.(
          oneof
            [
              char_range 'a' 'z';
              oneofl [ '"'; '\\'; '\n'; '{'; '}'; '='; ','; ' ' ];
            ]))
  in
  QCheck.Test.make ~name:"prometheus escaping round-trips" ~count:100
    QCheck.(pair hostile_string hostile_string)
    (fun (help, label_value) ->
      let r = Registry.create () in
      Registry.inc
        (Registry.counter r "m_total" ~help ~labels:[ ("site", label_value) ])
        7.0;
      let snap = Registry.snapshot r in
      match Oracle.parse_prometheus (Export.to_prometheus snap) with
      | Error _ -> false
      | Ok lines -> lines = Export.flatten snap)

let test_json_parser_errors () =
  Alcotest.(check bool) "trailing garbage" true
    (Result.is_error (J.parse "{} x"));
  Alcotest.(check bool) "unterminated" true (Result.is_error (J.parse "[1, 2"));
  Alcotest.(check bool) "escapes" true
    (J.parse {|"a\n\"b\\"|} = Ok (J.Str "a\n\"b\\"))

(* --- spans --- *)

let test_span_nesting () =
  let t = Span.create () in
  Span.with_span t "root" (fun root ->
      Span.with_span t "child" (fun _ -> ());
      Span.with_span t "child" (fun _ -> ());
      Span.with_span t "other" (fun _ -> ());
      Span.annotate root "k" "v");
  match Span.roots t with
  | [ root ] ->
    Alcotest.(check string) "name" "root" (Span.name root);
    Alcotest.(check bool) "wall recorded" true (Span.wall root >= 0.0);
    Alcotest.(check (list string)) "children oldest first"
      [ "child"; "child"; "other" ]
      (List.map Span.name (Span.children root));
    Alcotest.(check bool) "notes" true (Span.notes root = [ ("k", "v") ])
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

(* A tracer keeps the newest 1,024 roots. *)
let test_span_root_bound () =
  let t = Span.create () in
  for i = 1 to 1026 do
    Span.with_span t (string_of_int i) ignore
  done;
  Alcotest.(check (list string)) "oldest dropped"
    (List.init 1024 (fun i -> string_of_int (i + 3)))
    (List.map Span.name (Span.roots t));
  Alcotest.(check int) "dropped count" 2 (Span.dropped_roots t)

let test_span_timed_histogram () =
  let r = Registry.create () in
  let t = Span.create () in
  let v = Span.timed ~tracer:t ~registry:r ~stage:"digest.index" (fun () -> 41 + 1) in
  Alcotest.(check int) "passes result through" 42 v;
  Alcotest.(check (list string)) "span recorded" [ "digest.index" ]
    (List.map Span.name (Span.roots t));
  match Registry.value r "stage_seconds" ~labels:[ ("stage", "digest.index") ] with
  | Some (Registry.Histogram hs) ->
    Alcotest.(check int) "one observation" 1 hs.Registry.h_count
  | _ -> Alcotest.fail "stage histogram missing"

type span_tree = Node of string * int * span_tree list

let rec span_tree sp =
  Node (Span.name sp, Span.domain sp, List.map span_tree (Span.children sp))

(* Two domains hold nested spans open at the same time.  Each domain's
   spans form trees of their own, and the trace export draws each
   domain in its own lane ([tid]) with balanced B/E events. *)
let test_span_two_domains () =
  let t = Span.create () in
  let step = Atomic.make 0 in
  let await n =
    while Atomic.get step < n do
      Domain.cpu_relax ()
    done
  in
  (* Interleaved: a.outer, b.outer, a.inner, b.inner are all open before
     any of them finishes. *)
  let a_outer = Span.start t "a.outer" in
  let other =
    Domain.spawn (fun () ->
        let b_outer = Span.start t "b.outer" in
        Atomic.set step 1;
        await 2;
        let b_inner = Span.start t "b.inner" in
        Atomic.set step 3;
        await 4;
        Span.finish t b_inner;
        Span.finish t b_outer;
        (Domain.self () :> int))
  in
  await 1;
  let a_inner = Span.start t "a.inner" in
  Atomic.set step 2;
  await 3;
  Atomic.set step 4;
  let b_domain = Domain.join other in
  Span.finish t a_inner;
  Span.finish t a_outer;
  let a_domain = (Domain.self () :> int) in
  Alcotest.(check bool) "two domains" true (a_domain <> b_domain);
  Alcotest.(check bool) "roots b.outer then a.outer, each over its own inner" true
    (List.map span_tree (Span.roots t)
    = [
        Node ("b.outer", b_domain, [ Node ("b.inner", b_domain, []) ]);
        Node ("a.outer", a_domain, [ Node ("a.inner", a_domain, []) ]);
      ]);
  let events =
    match J.parse (Export.trace_events_string (Span.roots t)) with
    | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents")
    | Error msg -> Alcotest.fail msg
  in
  (* Per tid: B and E events nest like parentheses and close out. *)
  let lanes = Hashtbl.create 2 in
  List.iter
    (fun ev ->
      let str k = Option.bind (J.member k ev) J.to_str in
      let tid = Option.bind (J.member "tid" ev) J.to_float in
      match (str "ph", tid, str "name") with
      | Some "B", Some tid, Some name ->
        let open_ = Option.value ~default:[] (Hashtbl.find_opt lanes tid) in
        Hashtbl.replace lanes tid (name :: open_)
      | Some "E", Some tid, Some name -> (
        match Hashtbl.find_opt lanes tid with
        | Some (top :: rest) when top = name -> Hashtbl.replace lanes tid rest
        | _ -> Alcotest.failf "unbalanced E %s on tid %g" name tid)
      | _ -> ())
    events;
  Alcotest.(check (list (float 0.0))) "one lane per domain"
    (List.sort compare [ float_of_int a_domain; float_of_int b_domain ])
    (List.sort compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) lanes []));
  Hashtbl.iter
    (fun tid open_ ->
      Alcotest.(check (list string)) (Printf.sprintf "tid %g closes" tid) [] open_)
    lanes

(* --- logging ring buffer --- *)

let log_n log n =
  for i = 1 to n do
    let level = if i mod 3 = 0 then Logging.Warning else Logging.Info in
    Logging.log log ~time:(float_of_int i) ~level ~component:"c"
      (string_of_int i)
  done

let test_logging_ring () =
  let log = Logging.create ~capacity:4 () in
  log_n log 10;
  (* Counters survive eviction; entries are the newest, oldest first. *)
  Alcotest.(check int) "total count O(1)" 10 (Logging.count log);
  Alcotest.(check int) "warnings" 3 (Logging.count ~min_level:Logging.Warning log);
  Alcotest.(check (list string)) "newest retained, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (_, e) -> e.Logging.event) (Logging.drain_since log ~seq:0))

let test_logging_drain_since () =
  let log = Logging.create ~capacity:4 () in
  Alcotest.(check int) "empty next_seq" 0 (Logging.next_seq log);
  log_n log 10;
  Alcotest.(check int) "next_seq counts everything" 10 (Logging.next_seq log);
  (* Sequence numbers survive ring eviction: asking from 0 yields only
     the retained tail, numbered by global position. *)
  Alcotest.(check (list (pair int string)))
    "tail from 0 shows the eviction gap"
    [ (6, "7"); (7, "8"); (8, "9"); (9, "10") ]
    (List.map (fun (i, e) -> (i, e.Logging.event)) (Logging.drain_since log ~seq:0));
  Alcotest.(check (list (pair int string)))
    "incremental tail"
    [ (8, "9"); (9, "10") ]
    (List.map (fun (i, e) -> (i, e.Logging.event)) (Logging.drain_since log ~seq:8));
  Alcotest.(check (list (pair int string))) "caught up" []
    (List.map
       (fun (i, e) -> (i, e.Logging.event))
       (Logging.drain_since log ~seq:(Logging.next_seq log)));
  (* Unbounded logs tail the same way, without gaps. *)
  let u = Logging.create () in
  log_n u 3;
  Alcotest.(check (list (pair int string))) "unbounded tail"
    [ (0, "1"); (1, "2"); (2, "3") ]
    (List.map (fun (i, e) -> (i, e.Logging.event)) (Logging.drain_since u ~seq:0))

let test_logging_unbounded () =
  let log = Logging.create () in
  log_n log 10;
  Alcotest.(check int) "count matches" 10 (Logging.count log);
  Alcotest.(check (list string)) "oldest first"
    (List.init 10 (fun i -> string_of_int (i + 1)))
    (List.map (fun (_, e) -> e.Logging.event) (Logging.drain_since log ~seq:0))

(* --- pool-size independence (satellite 4) --- *)

(* Counter totals and histogram bucket counts must not depend on how
   tasks were spread over domains.  Observations are integer-valued, so
   even the histogram sum is bit-exact (the registry's exact-integer
   discipline). *)
let qcheck_registry_pool_independent =
  QCheck.Test.make ~name:"registry totals independent of pool size" ~count:30
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 40) (int_range 1 1000)))
    (fun (seed, values) ->
      let run size =
        let r = Registry.create () in
        let c = Registry.counter r "c" in
        let h = Registry.histogram r "h" in
        Parallel.Pool.with_pool ~size (fun pool ->
            ignore
              (Parallel.Pool.map pool
                 (fun v ->
                   let v = float_of_int ((v + seed) mod 1000) in
                   Registry.inc c v;
                   Registry.observe h v)
                 values));
        Registry.snapshot r
      in
      let s1 = run 1 in
      s1 = run 2 && s1 = run 4)

let suites =
  [
    ( "obs.registry",
      [
        Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
        Alcotest.test_case "labels canonical" `Quick test_labels_canonical;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        QCheck_alcotest.to_alcotest qcheck_registry_pool_independent;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "prometheus round-trip" `Quick test_prometheus_roundtrip;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json parser errors" `Quick test_json_parser_errors;
        QCheck_alcotest.to_alcotest qcheck_prometheus_escaping;
      ] );
    ( "obs.span",
      [
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "root bound" `Quick test_span_root_bound;
        Alcotest.test_case "timed stage histogram" `Quick test_span_timed_histogram;
        Alcotest.test_case "two domains, two trees" `Quick test_span_two_domains;
      ] );
    ( "obs.logging",
      [
        Alcotest.test_case "ring buffer" `Quick test_logging_ring;
        Alcotest.test_case "unbounded" `Quick test_logging_unbounded;
        Alcotest.test_case "drain_since tailing" `Quick test_logging_drain_since;
      ] );
  ]
