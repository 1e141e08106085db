type span = {
  sp_name : string;
  sp_t0 : float;
  sp_m0 : float;
  sp_domain : int;
  mutable sp_wall : float;
  mutable sp_minor : float;
  mutable sp_notes : (string * string) list; (* newest first *)
  mutable sp_children : span list; (* newest first *)
  sp_dummy : bool;
}

type t = {
  lock : Mutex.t;
  stacks : (int, span list) Hashtbl.t;
      (* domain -> its open spans, innermost first; no entry when empty *)
  roots : span Queue.t; (* finished roots, oldest first, <= max_roots *)
  mutable dropped : int;
}

let max_roots = 1024

let create () =
  {
    lock = Mutex.create ();
    stacks = Hashtbl.create 4;
    roots = Queue.create ();
    dropped = 0;
  }

let default = create ()

let dummy =
  {
    sp_name = "";
    sp_t0 = 0.0;
    sp_m0 = 0.0;
    sp_domain = 0;
    sp_wall = 0.0;
    sp_minor = 0.0;
    sp_notes = [];
    sp_children = [];
    sp_dummy = true;
  }

let stack t domain =
  match Hashtbl.find t.stacks domain with s -> s | exception Not_found -> []

let set_stack t domain = function
  | [] -> Hashtbl.remove t.stacks domain
  | s -> Hashtbl.replace t.stacks domain s

let start t name =
  if not (Registry.enabled ()) then dummy
  else begin
    let sp =
      {
        sp_name = name;
        sp_t0 = Clock.now ();
        sp_m0 = Gc.minor_words ();
        sp_domain = (Domain.self () :> int);
        sp_wall = 0.0;
        sp_minor = 0.0;
        sp_notes = [];
        sp_children = [];
        sp_dummy = false;
      }
    in
    Mutex.lock t.lock;
    let st = stack t sp.sp_domain in
    (match st with p :: _ -> p.sp_children <- sp :: p.sp_children | [] -> ());
    set_stack t sp.sp_domain (sp :: st);
    Mutex.unlock t.lock;
    sp
  end

let finish t sp =
  if not sp.sp_dummy then begin
    sp.sp_wall <- Clock.now () -. sp.sp_t0;
    sp.sp_minor <- Gc.minor_words () -. sp.sp_m0;
    Mutex.lock t.lock;
    let st = stack t sp.sp_domain in
    let was_open = List.memq sp st in
    (* Pop this span (and, defensively, anything opened after it that
       was never finished). *)
    let rec pop = function
      | [] -> []
      | x :: rest -> if x == sp then rest else pop rest
    in
    let rest = if was_open then pop st else st in
    if was_open then set_stack t sp.sp_domain rest;
    (* A span is a root if nothing remains open under it on its domain. *)
    if was_open && rest = [] then begin
      (* A full history drops its oldest root in O(1), so a long-lived
         tracer pays the same per root as a fresh one. *)
      Queue.push sp t.roots;
      if Queue.length t.roots > max_roots then begin
        ignore (Queue.take t.roots);
        t.dropped <- t.dropped + 1
      end
    end;
    Mutex.unlock t.lock
  end

let with_span t name f =
  let sp = start t name in
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
let domain sp = sp.sp_domain
let wall sp = sp.sp_wall
let minor_words sp = sp.sp_minor
let notes sp = List.rev sp.sp_notes

let children sp = List.rev sp.sp_children

let roots t =
  Mutex.lock t.lock;
  let r = List.of_seq (Queue.to_seq t.roots) in
  Mutex.unlock t.lock;
  r

let dropped_roots t = t.dropped

let reset t =
  Mutex.lock t.lock;
  Hashtbl.reset t.stacks;
  Queue.clear t.roots;
  t.dropped <- 0;
  Mutex.unlock t.lock
