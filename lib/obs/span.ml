type span = {
  sp_name : string;
  sp_t0 : float;
  sp_m0 : float;
  mutable sp_wall : float;
  mutable sp_minor : float;
  mutable sp_notes : (string * string) list; (* newest first *)
  mutable sp_parent : span option; (* None for roots and dummies *)
  mutable sp_seq : int; (* arrival index among siblings *)
  (* Retained children: the first [keep_first] chronologically, then a
     reservoir over the rest.  Aggregates below stay exact whatever was
     sampled out. *)
  mutable sp_first : span list; (* newest first, length <= keep_first *)
  mutable sp_reservoir : span array; (* [||] until the budget overflows *)
  mutable sp_res_len : int;
  mutable sp_child_seen : int; (* children started, exact *)
  mutable sp_child_wall : float; (* total wall of finished children, exact *)
  sp_dummy : bool;
}

type t = {
  lock : Mutex.t;
  max_roots : int;
  max_children : int;
  mutable rng : int; (* xorshift state for reservoir sampling *)
  mutable stack : span list; (* innermost open span first *)
  roots : span Queue.t; (* finished roots, oldest first, <= max_roots *)
  mutable dropped : int;
}

let create ?(max_roots = 1024) ?(max_children = max_int) ?(seed = 0x9E3779B9) () =
  if max_roots < 1 then invalid_arg "Obs.Span.create: max_roots must be >= 1";
  if max_children < 1 then
    invalid_arg "Obs.Span.create: max_children must be >= 1";
  {
    lock = Mutex.create ();
    max_roots;
    max_children;
    rng = (if seed = 0 then 0x9E3779B9 else seed);
    stack = [];
    roots = Queue.create ();
    dropped = 0;
  }

let default = create ()

let dummy =
  {
    sp_name = "";
    sp_t0 = 0.0;
    sp_m0 = 0.0;
    sp_wall = 0.0;
    sp_minor = 0.0;
    sp_notes = [];
    sp_parent = None;
    sp_seq = 0;
    sp_first = [];
    sp_reservoir = [||];
    sp_res_len = 0;
    sp_child_seen = 0;
    sp_child_wall = 0.0;
    sp_dummy = true;
  }

(* xorshift32; deterministic given the tracer's seed, cheap enough for
   the (rare) over-budget attach path.  Caller holds the lock. *)
let rand_int t bound =
  let x = t.rng in
  let x = x lxor (x lsl 13) land 0x3FFFFFFF in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0x3FFFFFFF in
  let x = if x = 0 then 0x9E3779B9 else x in
  t.rng <- x;
  x mod max 1 bound

(* Attach [sp] as a child of [p], retaining it only within the tracer's
   per-span budget: the first [keep_first] children always, later ones
   through a uniform reservoir of size [budget - keep_first].  Caller
   holds the lock. *)
let attach t p sp =
  sp.sp_parent <- Some p;
  sp.sp_seq <- p.sp_child_seen;
  p.sp_child_seen <- p.sp_child_seen + 1;
  let budget = t.max_children in
  let keep_first = budget - (budget / 2) in
  if sp.sp_seq < keep_first then p.sp_first <- sp :: p.sp_first
  else begin
    let res_cap = budget - keep_first in
    if res_cap > 0 then begin
      if p.sp_res_len < res_cap then begin
        if p.sp_reservoir = [||] then p.sp_reservoir <- Array.make res_cap dummy;
        p.sp_reservoir.(p.sp_res_len) <- sp;
        p.sp_res_len <- p.sp_res_len + 1
      end
      else begin
        (* j-th overflow child (1-based): keep with probability res_cap/j. *)
        let j = sp.sp_seq - keep_first + 1 in
        let r = rand_int t j in
        if r < res_cap then p.sp_reservoir.(r) <- sp
      end
    end
  end

let start t ?parent name =
  if not (Registry.enabled ()) then dummy
  else begin
    let sp =
      {
        sp_name = name;
        sp_t0 = Clock.now ();
        sp_m0 = Gc.minor_words ();
        sp_wall = 0.0;
        sp_minor = 0.0;
        sp_notes = [];
        sp_parent = None;
        sp_seq = 0;
        sp_first = [];
        sp_reservoir = [||];
        sp_res_len = 0;
        sp_child_seen = 0;
        sp_child_wall = 0.0;
        sp_dummy = false;
      }
    in
    Mutex.lock t.lock;
    (match (parent, t.stack) with
    | Some p, _ when not p.sp_dummy -> attach t p sp
    | Some _, _ -> ()
    | None, p :: _ -> attach t p sp
    | None, [] -> ());
    t.stack <- sp :: t.stack;
    Mutex.unlock t.lock;
    sp
  end

let finish t sp =
  if not sp.sp_dummy then begin
    sp.sp_wall <- Clock.now () -. sp.sp_t0;
    sp.sp_minor <- Gc.minor_words () -. sp.sp_m0;
    Mutex.lock t.lock;
    (* Parent aggregates stay exact even when the child itself was
       sampled out of the retained tree. *)
    (match sp.sp_parent with
    | Some p ->
      p.sp_child_wall <- p.sp_child_wall +. sp.sp_wall
    | None -> ());
    let was_open = List.memq sp t.stack in
    (* Pop this span (and, defensively, anything opened after it that
       was never finished). *)
    let rec pop = function
      | [] -> []
      | x :: rest -> if x == sp then rest else pop rest
    in
    if was_open then t.stack <- pop t.stack;
    (* A span is a root if nothing remains open under it. *)
    if was_open && t.stack = [] then begin
      (* A full history drops its oldest root in O(1), so a long-lived
         tracer pays the same per root as a fresh one. *)
      Queue.push sp t.roots;
      if Queue.length t.roots > t.max_roots then begin
        ignore (Queue.take t.roots);
        t.dropped <- t.dropped + 1
      end
    end;
    Mutex.unlock t.lock
  end

let with_span t ?parent name f =
  let sp = start t ?parent name in
  Fun.protect ~finally:(fun () -> finish t sp) (fun () -> f sp)

let annotate sp k v = if not sp.sp_dummy then sp.sp_notes <- (k, v) :: sp.sp_notes

let stage_hist registry stage =
  Registry.histogram registry "stage_seconds"
    ~help:"Wall-clock seconds per pipeline stage" ~labels:[ ("stage", stage) ]

let timed ?(tracer = default) ?(registry = Registry.default) ~stage f =
  if not (Registry.enabled ()) then f ()
  else begin
    let sp = start tracer stage in
    Fun.protect
      ~finally:(fun () ->
        finish tracer sp;
        Registry.observe (stage_hist registry stage) sp.sp_wall)
      f
  end

let name sp = sp.sp_name
let start_time sp = sp.sp_t0
let wall sp = sp.sp_wall
let minor_words sp = sp.sp_minor
let notes sp = List.rev sp.sp_notes

let children sp =
  let reservoir = Array.to_list (Array.sub sp.sp_reservoir 0 sp.sp_res_len) in
  List.rev sp.sp_first
  @ List.sort (fun a b -> compare a.sp_seq b.sp_seq) reservoir

let child_count sp = sp.sp_child_seen
let child_wall_total sp = sp.sp_child_wall

let sampled_out sp =
  sp.sp_child_seen - (List.length sp.sp_first + sp.sp_res_len)

let roots t =
  Mutex.lock t.lock;
  let r = List.of_seq (Queue.to_seq t.roots) in
  Mutex.unlock t.lock;
  r

let dropped_roots t = t.dropped

let reset t =
  Mutex.lock t.lock;
  t.stack <- [];
  Queue.clear t.roots;
  t.dropped <- 0;
  Mutex.unlock t.lock
