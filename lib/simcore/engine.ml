type event = { time : float; seq : int; callback : t -> unit }

(* A pre-sorted batch of events sharing one callback: slab presampling
   already produces arrivals in time order, so delivering them as a
   block costs one record + one float array per slab instead of one
   heap push, one event record and one closure per event.  Blocks live
   in a small secondary min-heap keyed by their head (time, seq); the
   main event heap is untouched. *)
and block = {
  bk_times : float array;  (* ascending *)
  bk_seq0 : int;  (* event i has seq bk_seq0 + i *)
  bk_callback : t -> int -> unit;
  mutable bk_next : int;  (* cursor: next undelivered index *)
}

and t = {
  mutable clock : float;
  mutable heap : event array;
  mutable size : int;
  mutable blocks : block array;
  mutable n_blocks : int;
  mutable next_seq : int;
  mutable executed : int;
  mutable batched : int;  (* events ever scheduled via batches *)
}

let dummy_block =
  { bk_times = [||]; bk_seq0 = 0; bk_callback = (fun _ _ -> ()); bk_next = 0 }

let create ?(start_time = 0.0) () =
  {
    clock = start_time;
    heap = Array.make 64 { time = 0.0; seq = 0; callback = (fun _ -> ()) };
    size = 0;
    blocks = Array.make 4 dummy_block;
    n_blocks = 0;
    next_seq = 0;
    executed = 0;
    batched = 0;
  }

let now t = t.clock

(* Min-heap ordered by (time, seq). *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ev =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (2 * t.size) ev in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some top
  end

(* --- block heap, keyed by each block's head (time, seq) --- *)

let bk_head_time b = b.bk_times.(b.bk_next)
let bk_head_seq b = b.bk_seq0 + b.bk_next

let bk_before a b =
  bk_head_time a < bk_head_time b
  || (bk_head_time a = bk_head_time b && bk_head_seq a < bk_head_seq b)

let bswap t i j =
  let tmp = t.blocks.(i) in
  t.blocks.(i) <- t.blocks.(j);
  t.blocks.(j) <- tmp

let rec bsift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if bk_before t.blocks.(i) t.blocks.(parent) then begin
      bswap t i parent;
      bsift_up t parent
    end
  end

let rec bsift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.n_blocks && bk_before t.blocks.(l) t.blocks.(!smallest) then
    smallest := l;
  if r < t.n_blocks && bk_before t.blocks.(r) t.blocks.(!smallest) then
    smallest := r;
  if !smallest <> i then begin
    bswap t i !smallest;
    bsift_down t !smallest
  end

let bpush t b =
  if t.n_blocks = Array.length t.blocks then begin
    let grown = Array.make (2 * t.n_blocks) dummy_block in
    Array.blit t.blocks 0 grown 0 t.n_blocks;
    t.blocks <- grown
  end;
  t.blocks.(t.n_blocks) <- b;
  t.n_blocks <- t.n_blocks + 1;
  bsift_up t (t.n_blocks - 1)

(* Advance the top block's cursor past the event just delivered,
   dropping the block when drained. *)
let badvance t =
  let b = t.blocks.(0) in
  b.bk_next <- b.bk_next + 1;
  if b.bk_next >= Array.length b.bk_times then begin
    t.n_blocks <- t.n_blocks - 1;
    if t.n_blocks > 0 then begin
      t.blocks.(0) <- t.blocks.(t.n_blocks);
      t.blocks.(t.n_blocks) <- dummy_block;
      bsift_down t 0
    end
    else t.blocks.(0) <- dummy_block
  end
  else bsift_down t 0

let schedule t ~delay callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { time = t.clock +. delay; seq; callback }

let schedule_at t ~time callback =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  schedule t ~delay:(time -. t.clock) callback

let schedule_batch t ~times callback =
  let n = Array.length times in
  if n > 0 then begin
    if times.(0) < t.clock then
      invalid_arg "Engine.schedule_batch: time in the past";
    for i = 1 to n - 1 do
      if times.(i) < times.(i - 1) then
        invalid_arg "Engine.schedule_batch: times not ascending"
    done;
    let seq0 = t.next_seq in
    (* One seq per event, consumed up front — exactly what a loop of
       schedule_at calls would do, so batched and per-event scheduling
       assign identical (time, seq) keys and tie-break identically. *)
    t.next_seq <- seq0 + n;
    t.batched <- t.batched + n;
    bpush t { bk_times = times; bk_seq0 = seq0; bk_callback = callback; bk_next = 0 }
  end

let executed t = t.executed
let batched_total t = t.batched

(* The next event's (time, seq) across both queues, or None. *)
let next_key t =
  let ev = if t.size = 0 then None else Some (t.heap.(0).time, t.heap.(0).seq) in
  let bk =
    if t.n_blocks = 0 then None
    else Some (bk_head_time t.blocks.(0), bk_head_seq t.blocks.(0))
  in
  match (ev, bk) with
  | None, None -> None
  | (Some _ as k), None | None, (Some _ as k) -> k
  | Some (et, es), Some (bt, bs) ->
    if bt < et || (bt = et && bs < es) then Some (bt, bs) else Some (et, es)

let step t =
  let from_block =
    t.n_blocks > 0
    && (t.size = 0
       ||
       let b = t.blocks.(0) in
       let bt = bk_head_time b and bs = bk_head_seq b in
       let e = t.heap.(0) in
       bt < e.time || (bt = e.time && bs < e.seq))
  in
  if from_block then begin
    let b = t.blocks.(0) in
    let i = b.bk_next in
    t.clock <- max t.clock b.bk_times.(i);
    badvance t;
    t.executed <- t.executed + 1;
    b.bk_callback t i;
    true
  end
  else
    match pop t with
    | None -> false
    | Some ev ->
      t.clock <- max t.clock ev.time;
      t.executed <- t.executed + 1;
      ev.callback t;
      true

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    let continue = ref true in
    while !continue do
      match next_key t with
      | Some (time, _) when time <= stop -> ignore (step t)
      | Some _ | None ->
        continue := false;
        t.clock <- max t.clock stop
    done

let every t ~period ?until callback =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let rec tick engine =
    match until with
    | Some stop when now engine > stop -> ()
    | Some _ | None ->
      callback engine;
      schedule engine ~delay:period tick
  in
  schedule t ~delay:period tick
