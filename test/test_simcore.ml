module Engine = Simcore.Engine

let test_engine_ordering () =
  let engine = Engine.create () in
  let order = ref [] in
  Engine.schedule engine ~delay:3.0 (fun _ -> order := "c" :: !order);
  Engine.schedule engine ~delay:1.0 (fun _ -> order := "a" :: !order);
  Engine.schedule engine ~delay:2.0 (fun _ -> order := "b" :: !order);
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_engine_fifo_ties () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule engine ~delay:1.0 (fun _ -> order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_clock_advances () =
  let engine = Engine.create ~start_time:100.0 () in
  let seen = ref 0.0 in
  Engine.schedule engine ~delay:5.5 (fun e -> seen := Engine.now e);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "clock at event" 105.5 !seen;
  Alcotest.(check (float 1e-9)) "clock after run" 105.5 (Engine.now engine)

let test_engine_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule engine ~delay:d (fun _ -> fired := d :: !fired))
    [ 1.0; 2.0; 10.0 ];
  Engine.run ~until:5.0 engine;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock clamped" 5.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "late event fires" 3 (List.length !fired)

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec tick e =
    incr count;
    if !count < 10 then Engine.schedule e ~delay:1.0 tick
  in
  Engine.schedule engine ~delay:1.0 tick;
  Engine.run engine;
  Alcotest.(check int) "chain of 10" 10 !count;
  Alcotest.(check (float 1e-9)) "final time" 10.0 (Engine.now engine)

let test_engine_negative_delay_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule engine ~delay:(-1.0) (fun _ -> ()))

let test_engine_every () =
  let engine = Engine.create () in
  let ticks = ref 0 in
  Engine.every engine ~period:2.0 ~until:9.0 (fun _ -> incr ticks);
  Engine.run ~until:30.0 engine;
  (* Fires at 2,4,6,8 and once more at 10 (checked against until before
     running); run is bounded anyway. *)
  Alcotest.(check bool) "about 4-5 ticks" true (!ticks >= 4 && !ticks <= 5)

(* --- batched scheduling --- *)

(* The contract: a schedule_batch block consumes sequence numbers
   exactly like the equivalent loop of per-event schedules, so any mix
   of batches and singles fires in an order bit-identical to the fully
   per-event program. *)
let test_engine_batch_equals_per_event () =
  let rng = Netcore.Rng.create 31 in
  (* A randomized program of singles and ascending-time batches. *)
  let program =
    List.init 40 (fun _ ->
        if Netcore.Rng.bool rng then `Single (Netcore.Rng.float rng *. 100.0)
        else begin
          let n = 1 + Netcore.Rng.int rng 6 in
          let start = Netcore.Rng.float rng *. 100.0 in
          let times =
            Array.make n start
          in
          for i = 1 to n - 1 do
            times.(i) <- times.(i - 1) +. (Netcore.Rng.float rng *. 10.0)
          done;
          `Batch times
        end)
  in
  let run ~batched =
    let engine = Engine.create () in
    let trace = ref [] in
    let tag = ref 0 in
    List.iter
      (fun step ->
        let k = !tag in
        incr tag;
        match step with
        | `Single t ->
          Engine.schedule engine ~delay:t (fun e ->
              trace := (k, -1, Engine.now e) :: !trace)
        | `Batch times ->
          if batched then
            Engine.schedule_batch engine ~times (fun e i ->
                trace := (k, i, Engine.now e) :: !trace)
          else
            Array.iteri
              (fun i t ->
                Engine.schedule_at engine ~time:t (fun e ->
                    trace := (k, i, Engine.now e) :: !trace))
              times)
      program;
    Engine.run engine;
    List.rev !trace
  in
  Alcotest.(check bool) "batched trace ≡ per-event trace" true
    (run ~batched:true = run ~batched:false)

let test_engine_batch_ties_interleave () =
  (* Equal times across a batch, a single, and a second batch fire in
     scheduling order, exactly as per-event scheduling would. *)
  let engine = Engine.create () in
  let order = ref [] in
  Engine.schedule_batch engine ~times:[| 1.0; 1.0 |] (fun _ i ->
      order := Printf.sprintf "a%d" i :: !order);
  Engine.schedule engine ~delay:1.0 (fun _ -> order := "s" :: !order);
  Engine.schedule_batch engine ~times:[| 1.0 |] (fun _ i ->
      order := Printf.sprintf "b%d" i :: !order);
  Engine.run engine;
  Alcotest.(check (list string)) "fifo across batches and singles"
    [ "a0"; "a1"; "s"; "b0" ] (List.rev !order)

let test_engine_batch_counters () =
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.schedule_batch engine ~times:[| 1.0; 2.0; 3.0; 4.0 |] (fun _ i ->
      fired := i :: !fired);
  Engine.schedule engine ~delay:2.5 (fun _ -> fired := 99 :: !fired);
  Engine.run engine;
  Alcotest.(check (list int)) "batch and single in time order" [ 0; 1; 99; 2; 3 ]
    (List.rev !fired);
  Alcotest.(check int) "executed counts every delivery" 5
    (Engine.executed engine);
  Alcotest.(check int) "batched_total" 4 (Engine.batched_total engine)

let test_engine_batch_pending_and_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.schedule_batch engine ~times:[| 1.0; 2.0; 10.0 |] (fun e _ ->
      fired := Engine.now e :: !fired);
  Engine.schedule engine ~delay:5.0 (fun e -> fired := Engine.now e :: !fired);
  Engine.run ~until:6.0 engine;
  Alcotest.(check (list (float 1e-9))) "late batch event still pending"
    [ 1.0; 2.0; 5.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock clamped" 6.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "drained" 4 (Engine.executed engine)

let test_engine_batch_validation () =
  let engine = Engine.create () in
  Alcotest.check_raises "descending times"
    (Invalid_argument "Engine.schedule_batch: times not ascending") (fun () ->
      Engine.schedule_batch engine ~times:[| 2.0; 1.0 |] (fun _ _ -> ()));
  Engine.schedule engine ~delay:5.0 (fun _ -> ());
  Engine.run engine;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_batch: time in the past") (fun () ->
      Engine.schedule_batch engine ~times:[| 1.0 |] (fun _ _ -> ()));
  (* Empty batches are a no-op and must not consume sequence numbers:
     two ties scheduled around one still fire in order. *)
  let order = ref [] in
  Engine.schedule engine ~delay:1.0 (fun _ -> order := 1 :: !order);
  Engine.schedule_batch engine ~times:[||] (fun _ _ -> ());
  Engine.schedule engine ~delay:1.0 (fun _ -> order := 2 :: !order);
  Engine.run engine;
  Alcotest.(check (list int)) "no-op empty batch" [ 1; 2 ] (List.rev !order)

let test_engine_heap_stress () =
  let engine = Engine.create () in
  let rng = Netcore.Rng.create 99 in
  let last = ref 0.0 and count = ref 0 in
  for _ = 1 to 10_000 do
    let d = Netcore.Rng.float rng *. 1000.0 in
    Engine.schedule engine ~delay:d (fun e ->
        incr count;
        let now = Engine.now e in
        Alcotest.(check bool) "monotonic" true (now >= !last);
        last := now)
  done;
  Engine.run engine;
  Alcotest.(check int) "all fired" 10_000 !count

let suites =
  [
    ( "simcore.engine",
      [
        Alcotest.test_case "event ordering" `Quick test_engine_ordering;
        Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
        Alcotest.test_case "clock advance" `Quick test_engine_clock_advances;
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_rejected;
        Alcotest.test_case "every" `Quick test_engine_every;
        Alcotest.test_case "heap stress" `Quick test_engine_heap_stress;
        Alcotest.test_case "batch ≡ per-event" `Quick
          test_engine_batch_equals_per_event;
        Alcotest.test_case "batch fifo ties" `Quick
          test_engine_batch_ties_interleave;
        Alcotest.test_case "batch counters" `Quick test_engine_batch_counters;
        Alcotest.test_case "batch pending / run until" `Quick
          test_engine_batch_pending_and_run_until;
        Alcotest.test_case "batch validation" `Quick
          test_engine_batch_validation;
      ] );
  ]
