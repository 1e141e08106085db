(* Core.Pipeline and the identity properties behind the weekly
   schedule: the hand-off queue preserves order and propagates errors,
   the schedule splits its core budget between the two stages and
   produces a profile byte-identical to the sequential loop kept here
   as the oracle, at any budget, pool size and queue depth, and the
   traffic driver's per-site synthesis is bit-identical at any pool size
   and presample slab. *)

module Pipeline = Patchwork.Pipeline
module Pool = Parallel.Pool

(* --- the pipeline runner itself --- *)

let test_pipeline_order () =
  let consumed = ref [] in
  let stats =
    Pipeline.run ~n:8
      ~produce:(fun k -> k * k)
      ~consume:(fun k v -> consumed := (k, v) :: !consumed)
      ()
  in
  Alcotest.(check (list (pair int int)))
    "in order, producer values intact"
    (List.init 8 (fun k -> (k, k * k)))
    (List.rev !consumed);
  Alcotest.(check int) "stats.items" 8 stats.Pipeline.items

let test_pipeline_depth_bound () =
  (* With depth 2 the producer can run at most 2 items ahead; the
     queue's high-water mark must respect that. *)
  let stats =
    Pipeline.run ~depth:2 ~n:20
      ~produce:(fun k -> k)
      ~consume:(fun _ _ -> Domain.cpu_relax ())
      ()
  in
  Alcotest.(check bool) "max_depth within bound" true (stats.Pipeline.max_depth <= 2)

let test_pipeline_empty_and_invalid () =
  let stats = Pipeline.run ~n:0 ~produce:(fun k -> k) ~consume:(fun _ _ -> ()) () in
  Alcotest.(check int) "zero items" 0 stats.Pipeline.items;
  Alcotest.check_raises "depth 0 rejected"
    (Invalid_argument "Pipeline.run: depth must be >= 1") (fun () ->
      ignore (Pipeline.run ~depth:0 ~n:1 ~produce:(fun k -> k) ~consume:(fun _ _ -> ()) ()));
  Alcotest.check_raises "negative n rejected"
    (Invalid_argument "Pipeline.run: n must be >= 0") (fun () ->
      ignore (Pipeline.run ~n:(-1) ~produce:(fun k -> k) ~consume:(fun _ _ -> ()) ()))

let test_pipeline_producer_error () =
  let consumed = ref [] in
  (try
     ignore
       (Pipeline.run ~n:5
          ~produce:(fun k -> if k = 2 then failwith "producer boom" else k)
          ~consume:(fun k _ -> consumed := k :: !consumed)
          ());
     Alcotest.fail "expected exception"
   with Failure msg -> Alcotest.(check string) "message" "producer boom" msg);
  Alcotest.(check (list int)) "items before the failure were consumed" [ 0; 1 ]
    (List.rev !consumed)

let test_pipeline_consumer_error () =
  let produced = ref 0 in
  (try
     ignore
       (Pipeline.run ~n:100
          ~produce:(fun k ->
            incr produced;
            k)
          ~consume:(fun k _ -> if k = 1 then failwith "consumer boom")
          ());
     Alcotest.fail "expected exception"
   with Failure msg -> Alcotest.(check string) "message" "consumer boom" msg);
  (* The producer was cancelled: it cannot have raced through all 100
     items while the consumer died on item 1 with a depth-1 queue. *)
  Alcotest.(check bool) "producer stopped early" true (!produced < 100)

(* --- the schedule's core budget --- *)

(* Budget 1 runs both stages inline on the calling domain; a larger
   budget gives the producer a domain of its own, and the two stages'
   pools use exactly the budget, the odd core going to the producer. *)
let test_schedule_budget () =
  let caller = (Domain.self () :> int) in
  let observe domains =
    let sizes = ref [] and producer_domain = ref caller in
    let stats =
      Pipeline.run_within ~domains ~n:3
        ~produce:(fun pool k ->
          producer_domain := (Domain.self () :> int);
          (Pool.size pool, k))
        ~consume:(fun pool _ (produce_size, _) ->
          sizes := (produce_size, Pool.size pool) :: !sizes)
    in
    (stats, List.sort_uniq compare !sizes, !producer_domain)
  in
  let stats, sizes, producer = observe 1 in
  Alcotest.(check int) "budget 1: items" 3 stats.Pipeline.items;
  Alcotest.(check int) "budget 1: max_depth" 0 stats.Pipeline.max_depth;
  Alcotest.(check (float 0.0)) "budget 1: overlap_s" 0.0 stats.Pipeline.overlap_s;
  Alcotest.(check (list (pair int int))) "budget 1: pools" [ (1, 1) ] sizes;
  Alcotest.(check int) "budget 1: produced on the calling domain" caller producer;
  List.iter
    (fun budget ->
      let stats, sizes, producer = observe budget in
      let name what = Printf.sprintf "budget %d: %s" budget what in
      Alcotest.(check int) (name "items") 3 stats.Pipeline.items;
      Alcotest.(check (list (pair int int)))
        (name "pools (produce, consume)")
        [ ((budget + 1) / 2, budget / 2) ]
        sizes;
      Alcotest.(check bool) (name "produced on another domain") true (producer <> caller))
    [ 2; 3; 4 ];
  Alcotest.check_raises "budget 0 rejected"
    (Invalid_argument "Pipeline.run_within: domains must be >= 1") (fun () ->
      ignore
        (Pipeline.run_within ~domains:0 ~n:1 ~produce:(fun _ k -> k)
           ~consume:(fun _ _ _ -> ())))

(* A pool credits its tasks to the domain that ran them.  At budget 2
   the producer's pool runs on its background domain and the
   consumer's on the caller, so the two stages' [Pool.map] work moves
   two [domain] series of the pool's task counter, not one. *)
let test_schedule_domain_series () =
  let tasks () =
    List.filter_map
      (fun (s : Obs.Registry.sample) ->
        match (s.Obs.Registry.s_name, s.Obs.Registry.s_value) with
        | "pool_domain_tasks_total", Obs.Registry.Counter v ->
          Some (List.assoc "domain" s.Obs.Registry.s_labels, v)
        | _ -> None)
      (Obs.Registry.snapshot Obs.Registry.default)
  in
  let before = tasks () in
  let work pool k =
    List.fold_left ( + ) k (Pool.map pool (fun i -> i * i) (List.init 64 Fun.id))
  in
  ignore
    (Pipeline.run_within ~domains:2 ~n:4 ~produce:work
       ~consume:(fun pool k _ -> ignore (work pool k)));
  let moved =
    List.filter
      (fun (domain, v) -> v > Option.value ~default:0.0 (List.assoc_opt domain before))
      (tasks ())
  in
  Alcotest.(check int) "domain series moved at budget 2" 2 (List.length moved)

(* --- the weekly schedule equals the sequential weekly loop --- *)

let weekly_seed = 2024
let weekly_weeks = 2

let run_week ?(seed = weekly_seed) ~pool w =
  let start_time = float_of_int (30 + (7 * w)) *. Netcore.Timebase.day in
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create ~pool fabric ~seed:(seed + (31 * w)) in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 2;
      max_frames_per_sample = 200;
      pool_size = Pool.size pool;
    }
  in
  Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~pool ~start_time
    ~duration:1500.0 ()

(* The oracle: one pool, one week after the other. *)
let weekly_profile_sequential ?seed ~size () =
  Pool.with_pool ~size @@ fun pool ->
  let b = Analysis.Profile.Builder.create () in
  for w = 0 to weekly_weeks - 1 do
    Analysis.Profile.Builder.add_report ~pool b (run_week ?seed ~pool w)
  done;
  Analysis.Profile.Builder.finish b

let weekly_profile_scheduled ~seed ~domains =
  let b = Analysis.Profile.Builder.create () in
  ignore
    (Pipeline.run_within ~domains ~n:weekly_weeks
       ~produce:(fun pool w -> run_week ~seed ~pool w)
       ~consume:(fun pool _ report ->
         Analysis.Profile.Builder.add_report ~pool b report));
  Analysis.Profile.Builder.finish b

let weekly_profile_pipelined ~size ~depth =
  Pool.with_pool ~size @@ fun an_pool ->
  Pool.with_pool ~size @@ fun sim_pool ->
  let b = Analysis.Profile.Builder.create () in
  ignore
    (Pipeline.run ~depth ~n:weekly_weeks
       ~produce:(fun w -> run_week ~pool:sim_pool w)
       ~consume:(fun _ report ->
         Analysis.Profile.Builder.add_report ~pool:an_pool b report)
       ());
  Analysis.Profile.Builder.finish b

let reference_profile = lazy (weekly_profile_sequential ~size:1 ())

let qcheck_schedule_weekly_identical =
  QCheck.Test.make ~name:"scheduled weekly profile equals sequential, budgets 1-4"
    ~count:3 (QCheck.int_range 1 10_000) (fun seed ->
      let reference = weekly_profile_sequential ~seed ~size:1 () in
      List.for_all
        (fun domains ->
          Analysis.Profile.equal reference (weekly_profile_scheduled ~seed ~domains))
        [ 1; 2; 3; 4 ])

let qcheck_pipelined_weekly_identical =
  QCheck.Test.make ~name:"pipelined weekly profile equals sequential" ~count:4
    QCheck.(pair (QCheck.oneofl [ 1; 2; 4 ]) (int_range 1 3))
    (fun (size, depth) ->
      Analysis.Profile.equal
        (Lazy.force reference_profile)
        (weekly_profile_pipelined ~size ~depth))

let test_sequential_pool_size_independent () =
  Alcotest.(check bool) "pool size 2 equals size 1" true
    (Analysis.Profile.equal
       (Lazy.force reference_profile)
       (weekly_profile_sequential ~size:2 ()))

(* --- traffic synthesis is pool-size- and slab-independent --- *)

let qcheck_synthesis_deterministic =
  QCheck.Test.make ~name:"parallel synthesis deterministic (pool, slab)"
    ~count:6
    QCheck.(
      triple (int_range 0 3) (QCheck.oneofl [ 1; 2; 4 ])
        (QCheck.oneofl [ 150.0; 900.0; 3600.0; 7200.0 ]))
    (fun (seed, pool_size, slab) ->
      let fingerprint ~pool_size ~slab = Synthesis.run ~seed ~pool_size ~slab () in
      fingerprint ~pool_size ~slab = fingerprint ~pool_size:1 ~slab:900.0)

let test_striped_flow_ids_unique () =
  (* Flow ids are striped per site; every live id must be distinct and
     resolve, whatever the pool size. *)
  Pool.with_pool ~size:3 @@ fun pool ->
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:9 engine in
  let driver = Traffic.Driver.create ~pool fabric ~seed:9 in
  Traffic.Driver.start driver ~until:3600.0;
  Simcore.Engine.run ~until:3600.0 engine;
  Alcotest.(check bool) "flows live" true (Traffic.Driver.live_flow_count driver > 0);
  (* Drain: after every flow ends, the spec table must be empty (no id
     ever collided with — and deleted — another site's entry). *)
  Simcore.Engine.run engine;
  Alcotest.(check int) "all flows detached" 0 (Traffic.Driver.live_flow_count driver)

let suites =
  [
    ( "core.pipeline",
      [
        Alcotest.test_case "ordered hand-off" `Quick test_pipeline_order;
        Alcotest.test_case "bounded depth" `Quick test_pipeline_depth_bound;
        Alcotest.test_case "empty and invalid" `Quick test_pipeline_empty_and_invalid;
        Alcotest.test_case "producer error" `Quick test_pipeline_producer_error;
        Alcotest.test_case "consumer error" `Quick test_pipeline_consumer_error;
        Alcotest.test_case "sequential pool-size independent" `Slow
          test_sequential_pool_size_independent;
        QCheck_alcotest.to_alcotest qcheck_pipelined_weekly_identical;
        Alcotest.test_case "schedule budget" `Quick test_schedule_budget;
        Alcotest.test_case "stages credit their own domains" `Quick
          test_schedule_domain_series;
        QCheck_alcotest.to_alcotest qcheck_schedule_weekly_identical;
      ] );
    ( "traffic.parallel-synthesis",
      [
        Alcotest.test_case "striped ids unique" `Quick test_striped_flow_ids_unique;
        QCheck_alcotest.to_alcotest qcheck_synthesis_deterministic;
      ] );
  ]
