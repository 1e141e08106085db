type level = Debug | Info | Warning | Error

type entry = { time : float; level : level; component : string; event : string }

let severity = function Debug -> 0 | Info -> 1 | Warning -> 2 | Error -> 3

(* Two storage modes behind one API: unbounded (a list, newest first, as
   before) or a fixed-capacity ring that evicts the oldest entry.  The
   per-level counters count every logged event — including evicted ones
   — so [count] is O(1) instead of the old O(n) scan and keeps meaning
   "events logged" in ring mode. *)
type t = {
  capacity : int; (* 0 = unbounded *)
  mutable entries : entry list; (* newest first; unbounded mode *)
  ring : entry option array; (* ring mode; [||] otherwise *)
  mutable ring_start : int; (* index of the oldest retained entry *)
  mutable ring_len : int;
  counts : int array; (* per-level totals, never decremented *)
  lock : Mutex.t; (* the live /logs.json endpoint reads from another domain *)
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Logging.create: capacity must be >= 0";
  {
    capacity;
    entries = [];
    ring = (if capacity > 0 then Array.make capacity None else [||]);
    ring_start = 0;
    ring_len = 0;
    counts = Array.make 4 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let log t ~time ~level ~component event =
  let e = { time; level; component; event } in
  let s = severity level in
  locked t (fun () ->
      t.counts.(s) <- t.counts.(s) + 1;
      if t.capacity = 0 then t.entries <- e :: t.entries
      else begin
        let slot = (t.ring_start + t.ring_len) mod t.capacity in
        t.ring.(slot) <- Some e;
        if t.ring_len < t.capacity then t.ring_len <- t.ring_len + 1
        else t.ring_start <- (t.ring_start + 1) mod t.capacity
      end)

let entries_unlocked t =
  if t.capacity = 0 then List.rev t.entries
  else
    List.init t.ring_len (fun i ->
        match t.ring.((t.ring_start + i) mod t.capacity) with
        | Some e -> e
        | None -> assert false (* slots [0, ring_len) are filled *))

let count_unlocked ~min_level t =
  let s = severity min_level in
  let total = ref 0 in
  for i = s to 3 do
    total := !total + t.counts.(i)
  done;
  !total

let count ?(min_level = Debug) t = locked t (fun () -> count_unlocked ~min_level t)

let retained_unlocked t =
  if t.capacity = 0 then List.length t.entries else t.ring_len

let next_seq t = locked t (fun () -> count_unlocked ~min_level:Debug t)

let drain_since t ~seq =
  locked t (fun () ->
      let total = count_unlocked ~min_level:Debug t in
      let oldest = total - retained_unlocked t in
      let all = entries_unlocked t in
      let rec tag i acc = function
        | [] -> List.rev acc
        | e :: rest ->
          tag (i + 1) (if i >= seq then (i, e) :: acc else acc) rest
      in
      tag oldest [] all)

let level_name = function
  | Debug -> "DEBUG"
  | Info -> "INFO"
  | Warning -> "WARN"
  | Error -> "ERROR"
