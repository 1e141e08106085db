(* Fixed pool of worker domains draining a shared job queue.  The
   calling domain participates in every batch (it pops jobs while
   waiting), so a pool of [size] n uses n domains in total.  A pool is
   owned by one domain at a time: batches are submitted and awaited from
   the owner, never concurrently.

   Observability: every executed job credits the busy-seconds and task
   counters in Obs.Registry.default of the domain that ran it, labelled
   by its [Domain.self] id, and the time a job sat in the queue feeds
   the pool_queue_wait_seconds histogram.  Jobs are chunk-sized (a few
   per domain per batch), so the per-job clock reads and cell updates
   are far off the per-packet hot path. *)

type job = unit -> unit

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* a job was enqueued, or the pool closed *)
  jobs : (float * job) Queue.t;  (* enqueue timestamp, job *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_size () = max 1 (Domain.recommended_domain_count () - 1)

(* The series of the domain running the caller.  Labelling by the
   domain, not by its index in a pool, keeps two pools on two domains
   (the weekly schedule's two stages) apart. *)
let domain_labels () = [ ("domain", string_of_int (Domain.self () :> int)) ]

let busy_counter () =
  Obs.Registry.counter Obs.Registry.default "pool_domain_busy_seconds_total"
    ~help:"Seconds each pool domain spent executing tasks"
    ~labels:(domain_labels ())

let tasks_counter () =
  Obs.Registry.counter Obs.Registry.default "pool_domain_tasks_total"
    ~help:"Tasks executed per pool domain"
    ~labels:(domain_labels ())

let queue_wait_hist =
  lazy
    (Obs.Registry.histogram Obs.Registry.default "pool_queue_wait_seconds"
       ~help:"Seconds a task waited in the pool queue before starting")

(* Run [f], crediting [tasks] tasks and its busy time to this domain. *)
let credit ~tasks f =
  if not (Obs.Registry.enabled ()) then f ()
  else begin
    let t0 = Obs.Clock.now () in
    let r = f () in
    Obs.Registry.inc (busy_counter ()) (Obs.Clock.now () -. t0);
    Obs.Registry.inc (tasks_counter ()) (float_of_int tasks);
    r
  end

(* Run one queued job on this domain, crediting busy time and queue
   wait. *)
let run_job ~enqueued job =
  if enqueued >= 0.0 && Obs.Registry.enabled () then
    Obs.Registry.observe (Lazy.force queue_wait_hist)
      (Float.max 0.0 (Obs.Clock.now () -. enqueued));
  credit ~tasks:1 job

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.jobs && not t.closed do
    Condition.wait t.work t.lock
  done;
  if Queue.is_empty t.jobs then Mutex.unlock t.lock
  else begin
    let enqueued, job = Queue.pop t.jobs in
    Mutex.unlock t.lock;
    run_job ~enqueued job;
    worker_loop t
  end

let create ?size () =
  let size =
    match size with
    | None -> default_size ()
    | Some s when s < 1 -> invalid_arg "Pool.create: size must be >= 1"
    | Some s -> s
  in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  (* Spawn [size - 1] workers; stop early (rather than fail) if the
     runtime cannot give us more domains. *)
  let workers = ref [] in
  (try
     for _ = 2 to size do
       workers := Domain.spawn (fun () -> worker_loop t) :: !workers
     done
   with _ -> ());
  t.workers <- !workers;
  t

let sequential =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    jobs = Queue.create ();
    closed = false;
    workers = [];
  }

let size t = List.length t.workers + 1

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- [];
  t.closed <- false

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run a sequential batch in the calling domain, still crediting it so
   single-core runs surface busy time too. *)
let run_seq tasks =
  credit ~tasks:(Array.length tasks) (fun () -> Array.iter (fun f -> f ()) tasks)

(* Run every task of a batch; tasks must not raise (callers wrap them).
   The caller helps drain the queue, then blocks until the last worker
   finishes its task. *)
let run_all t (tasks : job array) =
  match t.workers with
  | [] -> run_seq tasks
  | _ ->
    let remaining = ref (Array.length tasks) in
    let batch_done = Condition.create () in
    let wrap f () =
      f ();
      Mutex.lock t.lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock t.lock
    in
    let enqueue_time =
      if Obs.Registry.enabled () then Obs.Clock.now () else -1.0
    in
    Mutex.lock t.lock;
    Array.iter (fun f -> Queue.push (enqueue_time, wrap f) t.jobs) tasks;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    let rec help () =
      Mutex.lock t.lock;
      if not (Queue.is_empty t.jobs) then begin
        let enqueued, job = Queue.pop t.jobs in
        Mutex.unlock t.lock;
        run_job ~enqueued job;
        help ()
      end
      else begin
        while !remaining > 0 do
          Condition.wait batch_done t.lock
        done;
        Mutex.unlock t.lock
      end
    in
    help ()

let reraise_first results n =
  let rec scan i =
    if i < n then begin
      (match results.(i) with Some (Error e) -> raise e | _ -> ());
      scan (i + 1)
    end
  in
  scan 0

let map_array t f arr =
  match t.workers with
  | [] -> credit ~tasks:1 (fun () -> Array.map f arr)
  | workers ->
    let n = Array.length arr in
    let results = Array.make n None in
    (* A few chunks per domain so a slow chunk does not serialize the
       tail of the batch. *)
    let chunk_count = (List.length workers + 1) * 4 in
    let chunk_len = max 1 ((n + chunk_count - 1) / chunk_count) in
    let tasks = ref [] in
    let lo = ref 0 in
    while !lo < n do
      let lo' = !lo in
      let hi = min n (lo' + chunk_len) in
      tasks :=
        (fun () ->
          for i = lo' to hi - 1 do
            results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e)
          done)
        :: !tasks;
      lo := hi
    done;
    run_all t (Array.of_list (List.rev !tasks));
    reraise_first results n;
    Array.map
      (function Some (Ok v) -> v | _ -> assert false (* all slots filled *))
      results

let map t f l =
  match t.workers with
  | [] -> credit ~tasks:1 (fun () -> List.map f l)
  | _ -> Array.to_list (map_array t f (Array.of_list l))
