(* Two-stage occasion pipeline: a producer stage (simulate + gather one
   occasion) on a background domain feeding a consumer stage (analysis)
   on the calling domain through a bounded hand-off queue.

   The queue preserves order — item k is always consumed before item
   k+1 — so an order-sensitive consumer like Profile.Builder.add_report
   sees exactly the sequence a sequential loop would have produced; the
   only thing that changes is wall-clock overlap.  Each stage must own
   its resources (in particular its Parallel.Pool: a pool is owned by
   one domain at a time), so run_within gives the two stages separate
   pools cut from one core budget. *)

type stats = {
  items : int;  (** items produced and consumed *)
  wall_s : float;  (** end-to-end wall time of the run *)
  produce_busy_s : float;  (** total seconds the producer stage worked *)
  consume_busy_s : float;  (** total seconds the consumer stage worked *)
  overlap_s : float;  (** lower bound on concurrent stage work *)
  max_depth : int;  (** high-water mark of the hand-off queue *)
}

(* Hand-off queue metrics: depth is a gauge (scrapable live via
   weekly --serve-metrics), busy/overlap accumulate across runs. *)
let obs_depth =
  Obs.Registry.gauge Obs.Registry.default "pipeline_queue_depth"
    ~help:"Occasion reports currently waiting in the pipeline hand-off queue"

let obs_produced =
  Obs.Registry.counter Obs.Registry.default "pipeline_items_produced_total"
    ~help:"Occasions finished by the pipeline's producer stage"

let obs_consumed =
  Obs.Registry.counter Obs.Registry.default "pipeline_items_consumed_total"
    ~help:"Occasions absorbed by the pipeline's consumer stage"

let obs_stage_busy stage =
  Obs.Registry.counter Obs.Registry.default "pipeline_stage_busy_seconds_total"
    ~help:"Seconds each pipeline stage spent working"
    ~labels:[ ("stage", stage) ]

let obs_overlap =
  Obs.Registry.counter Obs.Registry.default "pipeline_overlap_seconds_total"
    ~help:"Seconds the produce and consume stages provably ran concurrently"

type 'a queue = {
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  items : ('a, exn) result Queue.t;
  capacity : int;
  mutable cancelled : bool;  (* consumer died: producer should stop *)
  mutable max_depth : int;
}

let queue_create capacity =
  {
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    items = Queue.create ();
    capacity;
    cancelled = false;
    max_depth = 0;
  }

(* Push from the producer; blocks while the queue is full.  Returns
   [false] if the consumer cancelled the run (the item is dropped and
   the producer should exit). *)
let push q v =
  Mutex.lock q.lock;
  while Queue.length q.items >= q.capacity && not q.cancelled do
    Condition.wait q.not_full q.lock
  done;
  let accepted = not q.cancelled in
  if accepted then begin
    Queue.push v q.items;
    let depth = Queue.length q.items in
    if depth > q.max_depth then q.max_depth <- depth;
    Obs.Registry.set obs_depth (float_of_int depth);
    Condition.signal q.not_empty
  end;
  Mutex.unlock q.lock;
  accepted

let pop q =
  Mutex.lock q.lock;
  while Queue.is_empty q.items do
    Condition.wait q.not_empty q.lock
  done;
  let v = Queue.pop q.items in
  Obs.Registry.set obs_depth (float_of_int (Queue.length q.items));
  Condition.signal q.not_full;
  Mutex.unlock q.lock;
  v

let cancel q =
  Mutex.lock q.lock;
  q.cancelled <- true;
  Condition.broadcast q.not_full;
  Mutex.unlock q.lock

(* Sequential fallback: same observable behavior (order, stats shape),
   no overlap.  Used when the runtime cannot give us a second domain. *)
let run_sequential ~n ~produce ~consume =
  let t0 = Obs.Clock.now () in
  let pb = ref 0.0 and cb = ref 0.0 in
  for k = 0 to n - 1 do
    let p0 = Obs.Clock.now () in
    let v = produce k in
    let p1 = Obs.Clock.now () in
    consume k v;
    let p2 = Obs.Clock.now () in
    pb := !pb +. (p1 -. p0);
    cb := !cb +. (p2 -. p1);
    Obs.Registry.incr obs_produced;
    Obs.Registry.incr obs_consumed
  done;
  Obs.Registry.inc (obs_stage_busy "produce") !pb;
  Obs.Registry.inc (obs_stage_busy "consume") !cb;
  {
    items = n;
    wall_s = Obs.Clock.now () -. t0;
    produce_busy_s = !pb;
    consume_busy_s = !cb;
    overlap_s = 0.0;
    max_depth = 0;
  }

let run ?(depth = 1) ~n ~produce ~consume () =
  if depth < 1 then invalid_arg "Pipeline.run: depth must be >= 1";
  if n < 0 then invalid_arg "Pipeline.run: n must be >= 0";
  if n = 0 then
    {
      items = 0;
      wall_s = 0.0;
      produce_busy_s = 0.0;
      consume_busy_s = 0.0;
      overlap_s = 0.0;
      max_depth = 0;
    }
  else begin
    let q = queue_create depth in
    let t0 = Obs.Clock.now () in
    let produce_busy = ref 0.0 in
    let producer =
      Parallel.Background.spawn (fun () ->
          let k = ref 0 in
          let continue = ref true in
          while !continue && !k < n do
            let item =
              let p0 = Obs.Clock.now () in
              match produce !k with
              | v ->
                produce_busy := !produce_busy +. (Obs.Clock.now () -. p0);
                Obs.Registry.incr obs_produced;
                Ok v
              | exception e ->
                produce_busy := !produce_busy +. (Obs.Clock.now () -. p0);
                Error e
            in
            let fatal = Result.is_error item in
            if not (push q item) then continue := false
            else if fatal then continue := false
            else incr k
          done)
    in
    if not (Parallel.Background.spawned producer) then
      (* Domain limit reached: degrade to the sequential loop rather
         than fail the service. *)
      run_sequential ~n ~produce ~consume
    else begin
      let consume_busy = ref 0.0 in
      let finish_producer () =
        (* Consumer is already failing: stop the producer and drop its
           outcome so the consumer's exception is the one that surfaces. *)
        cancel q;
        ignore (Parallel.Background.join producer)
      in
      (try
         for k = 0 to n - 1 do
           match pop q with
           | Error e ->
             (* Producer failed at item k: nothing further is coming. *)
             ignore (Parallel.Background.join producer);
             raise e
           | Ok v ->
             let c0 = Obs.Clock.now () in
             Fun.protect
               ~finally:(fun () ->
                 consume_busy := !consume_busy +. (Obs.Clock.now () -. c0))
               (fun () -> consume k v);
             Obs.Registry.incr obs_consumed
         done
       with e ->
         finish_producer ();
         raise e);
      (match Parallel.Background.join producer with
      | Ok () -> ()
      | Error e -> raise e);
      let wall = Obs.Clock.now () -. t0 in
      let pb = !produce_busy and cb = !consume_busy in
      (* Both stages ran inside the same wall interval, so any busy time
         beyond the wall must have been concurrent. *)
      let overlap = Float.max 0.0 (pb +. cb -. wall) in
      Obs.Registry.inc (obs_stage_busy "produce") pb;
      Obs.Registry.inc (obs_stage_busy "consume") cb;
      Obs.Registry.inc obs_overlap overlap;
      {
        items = n;
        wall_s = wall;
        produce_busy_s = pb;
        consume_busy_s = cb;
        overlap_s = overlap;
        max_depth = q.max_depth;
      }
    end
  end

let run_within ~domains ~n ~produce ~consume =
  if domains < 1 then invalid_arg "Pipeline.run_within: domains must be >= 1";
  if n < 0 then invalid_arg "Pipeline.run_within: n must be >= 0";
  if domains = 1 then
    let pool = Parallel.Pool.sequential in
    run_sequential ~n ~produce:(produce pool) ~consume:(consume pool)
  else
    (* Simulation is the slower stage, so it takes the odd core.  The
       producer's domain and the calling domain each run in their own
       pool, so the two pools together use exactly [domains]. *)
    Parallel.Pool.with_pool ~size:((domains + 1) / 2) @@ fun sim_pool ->
    Parallel.Pool.with_pool ~size:(domains / 2) @@ fun an_pool ->
    run ~n ~produce:(produce sim_pool) ~consume:(consume an_pool) ()
