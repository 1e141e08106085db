(* Capture-loss attribution ledger: per-site × per-occasion accounting
   of every frame and byte the capture path failed to store.

   The paper's central question is completeness — why stored traffic
   diverges from offered traffic — so the ledger enforces it as an
   invariant: per site, per occasion,

     offered = stored + Σ attributed          (frames AND bytes)

   with every non-stored frame/byte attributed to exactly one cause.
   The capture path reports each sample's split ({!record_sample}).
   {!close_occasion} checks the residual against {!tolerance}; a
   violation bumps [ledger_conservation_violations_total], is logged as
   an error, and raises under {!set_strict} — the whole test suite runs
   strict, so any attribution path that leaks frames hard-fails.

   Each (site, cause) cell carries a deterministic reservoir of up to K
   exemplar flow keys for drill-down into the flow store.  Instead of
   sequential reservoir sampling (whose contents depend on insertion
   order, which a worker pool would perturb) each candidate key gets a
   SplitMix64-mixed priority from a seed derived from site + occasion
   start, and the cell keeps the K smallest priorities.  The selection
   is a pure function of the candidate key set, so pool size and shard
   interleaving cannot change the exemplars. *)

type host_path = Kernel | Dpdk | Fpga

type cause =
  | Mirror_congestion
  | Switch_drop
  | Host_drop of host_path
  | Truncated
  | Sampled

let all_causes =
  [
    Mirror_congestion;
    Switch_drop;
    Host_drop Kernel;
    Host_drop Dpdk;
    Host_drop Fpga;
    Truncated;
    Sampled;
  ]

let cause_label = function
  | Mirror_congestion -> "mirror_congestion"
  | Switch_drop -> "switch_drop"
  | Host_drop Kernel -> "host_drop_kernel"
  | Host_drop Dpdk -> "host_drop_dpdk"
  | Host_drop Fpga -> "host_drop_fpga"
  | Truncated -> "truncated"
  | Sampled -> "sampled"

let tolerance = 1e-6

(* --- deterministic exemplar priorities ----------------------------- *)

(* SplitMix64 finalizer: a bijective avalanche mix. *)
let[@inline] mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A loop, not [String.iter]: a ref captured by a closure is boxed and
   so is every Int64 stored into it, three words per byte hashed. *)
let[@inline] fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

let seed_for ~site ~at = mix64 (Int64.add (fnv64 site) (Int64.bits_of_float at))
let priority ~seed key = mix64 (Int64.add seed (fnv64 key))

(* --- accumulation state -------------------------------------------- *)

type cell = {
  mutable c_frames : float;
  mutable c_bytes : float;
  (* (priority, key), ascending by unsigned priority, length <= K. *)
  mutable c_exemplars : (int64 * string) list;
}

type acc = {
  a_seed : int64;
  mutable a_offered_frames : float;
  mutable a_offered_bytes : float;
  mutable a_stored_frames : float;
  mutable a_stored_bytes : float;
  a_cells : (cause, cell) Hashtbl.t;
}

type site_entry = {
  e_site : string;
  e_offered_frames : float;
  e_offered_bytes : float;
  e_stored_frames : float;
  e_stored_bytes : float;
  e_causes : (cause * float * float * string list) list;
      (* cause, frames, bytes, exemplar keys *)
  e_frames_residual : float;
  e_bytes_residual : float;
  e_conserved : bool;
}

type occasion_entry = {
  o_seq : int;
  o_start : float;
  o_sites : site_entry list; (* sorted by site name *)
}

type t = {
  l_lock : Mutex.t;
  l_current : (string, acc) Hashtbl.t;
  mutable l_start : float;
  mutable l_seq : int;
  mutable l_history : occasion_entry list; (* newest first, bounded *)
}

(* K, the exemplar keys each (site, cause) cell keeps, and the closed
   occasions a ledger retains. *)
let exemplars = 5
let history_cap = 64

let create () =
  {
    l_lock = Mutex.create ();
    l_current = Hashtbl.create 8;
    l_start = 0.0;
    l_seq = 0;
    l_history = [];
  }

let default = create ()

let enabled_flag = Atomic.make true
let strict_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let strict () = Atomic.get strict_flag
let set_strict b = Atomic.set strict_flag b

exception Conservation_violation of string

let locked t f =
  Mutex.lock t.l_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.l_lock) f

(* --- registry surface ---------------------------------------------- *)

(* Registered at the first violation, so a run without one exports no
   violation series. *)
let obs_violations () =
  Registry.counter Registry.default "ledger_conservation_violations_total"
    ~help:"Occasion closes whose loss attribution failed to reconcile"

(* Each site's counters in [Registry.default], resolved at its first
   close and kept (registration sorts and hashes a label list); a cause's
   pair at its first attribution, so a cause that never lost a frame has
   no series.  Closes emit outside the ledger lock: [handles_lock]. *)
type site_handles = {
  offered_frames : Registry.counter;
  offered_bytes : Registry.counter;
  stored_frames : Registry.counter;
  stored_bytes : Registry.counter;
  attributed : (cause, Registry.counter * Registry.counter) Hashtbl.t;
}

let handles_lock = Mutex.create ()
let handles : (string, site_handles) Hashtbl.t = Hashtbl.create 32

let site_handles site =
  match Hashtbl.find_opt handles site with
  | Some h -> h
  | None ->
    let counter name = Registry.counter Registry.default name ~labels:[ ("site", site) ] in
    let h =
      {
        offered_frames = counter "ledger_offered_frames_total";
        offered_bytes = counter "ledger_offered_bytes_total";
        stored_frames = counter "ledger_stored_frames_total";
        stored_bytes = counter "ledger_stored_bytes_total";
        attributed = Hashtbl.create 8;
      }
    in
    Hashtbl.add handles site h;
    h

let cause_handles h site cause =
  match Hashtbl.find_opt h.attributed cause with
  | Some pair -> pair
  | None ->
    let labels = [ ("site", site); ("cause", cause_label cause) ] in
    let counter name = Registry.counter Registry.default name ~labels in
    let pair =
      (counter "ledger_attributed_frames_total", counter "ledger_attributed_bytes_total")
    in
    Hashtbl.add h.attributed cause pair;
    pair

(* --- accumulation -------------------------------------------------- *)

let acc_for t site =
  match Hashtbl.find_opt t.l_current site with
  | Some a -> a
  | None ->
    let a =
      {
        a_seed = seed_for ~site ~at:t.l_start;
        a_offered_frames = 0.0;
        a_offered_bytes = 0.0;
        a_stored_frames = 0.0;
        a_stored_bytes = 0.0;
        a_cells = Hashtbl.create 8;
      }
    in
    Hashtbl.add t.l_current site a;
    a

let cell_for a cause =
  match Hashtbl.find_opt a.a_cells cause with
  | Some c -> c
  | None ->
    let c = { c_frames = 0.0; c_bytes = 0.0; c_exemplars = [] } in
    Hashtbl.add a.a_cells cause c;
    c

(* Keep the K unsigned-smallest priorities; distinct keys only.  Ties
   (astronomically unlikely, but determinism demands an answer) break
   toward the lexicographically smaller key.  Priorities are hashed once
   per ledger call and shared across cause cells; a full reservoir whose
   worst element already beats the candidate rejects it on a single
   comparison, which is the steady state on the capture hot path. *)
let precedes (p, key) (q, kk) =
  let c = Int64.unsigned_compare p q in
  c < 0 || (c = 0 && String.compare key kk < 0)

(* The list never holds more than K, so its K-th element is the worst
   of a full reservoir: one walk, without allocating, rejects. *)
let rec kth_exemplar i = function
  | [] -> raise_notrace Exit
  | e :: rest -> if i = 0 then e else kth_exemplar (i - 1) rest

let admit_exemplar ~full cell ((_, key) as cand) =
  let exs = cell.c_exemplars in
  if not (List.exists (fun (_, kk) -> String.equal kk key) exs) then begin
    let rec ins = function
      | [] -> [ cand ]
      | e :: rest -> if precedes cand e then cand :: e :: rest else e :: ins rest
    in
    let l = ins exs in
    cell.c_exemplars <- (if full then List.filteri (fun i _ -> i < exemplars) l else l)
  end

let insert_exemplar cell cand =
  match kth_exemplar (exemplars - 1) cell.c_exemplars with
  | worst -> if precedes cand worst then admit_exemplar ~full:true cell cand
  | exception Exit -> admit_exemplar ~full:false cell cand

let add_to_cell a cause ~frames ~bytes ~pkeys =
  if frames > 0.0 || bytes > 0.0 then begin
    let c = cell_for a cause in
    c.c_frames <- c.c_frames +. frames;
    c.c_bytes <- c.c_bytes +. bytes;
    List.iter (insert_exemplar c) pkeys
  end

let priorities ~seed keys =
  List.map (fun key -> (priority ~seed key, key)) keys

let begin_occasion t ~at =
  locked t @@ fun () ->
  Hashtbl.reset t.l_current;
  t.l_start <- at

let record_sample t ~site ~offered_frames ~offered_bytes ~stored_frames
    ~stored_bytes ?(keys = []) causes =
  locked t @@ fun () ->
  let a = acc_for t site in
  a.a_offered_frames <- a.a_offered_frames +. offered_frames;
  a.a_offered_bytes <- a.a_offered_bytes +. offered_bytes;
  a.a_stored_frames <- a.a_stored_frames +. stored_frames;
  a.a_stored_bytes <- a.a_stored_bytes +. stored_bytes;
  let pkeys = priorities ~seed:a.a_seed keys in
  List.iter
    (fun (cause, frames, bytes) -> add_to_cell a cause ~frames ~bytes ~pkeys)
    causes

(* --- occasion close: conservation + counters ----------------------- *)

let close_site site (a : acc) =
  let causes =
    List.filter_map
      (fun cause ->
        match Hashtbl.find_opt a.a_cells cause with
        | None -> None
        | Some c ->
          Some (cause, c.c_frames, c.c_bytes, List.map snd c.c_exemplars))
      all_causes
  in
  let attr_frames =
    List.fold_left (fun s (_, f, _, _) -> s +. f) 0.0 causes
  in
  let attr_bytes = List.fold_left (fun s (_, _, b, _) -> s +. b) 0.0 causes in
  let fr = a.a_offered_frames -. a.a_stored_frames -. attr_frames in
  let br = a.a_offered_bytes -. a.a_stored_bytes -. attr_bytes in
  let ok_within residual offered =
    Float.abs residual <= tolerance *. Float.max 1.0 offered
  in
  {
    e_site = site;
    e_offered_frames = a.a_offered_frames;
    e_offered_bytes = a.a_offered_bytes;
    e_stored_frames = a.a_stored_frames;
    e_stored_bytes = a.a_stored_bytes;
    e_causes = causes;
    e_frames_residual = fr;
    e_bytes_residual = br;
    e_conserved =
      ok_within fr a.a_offered_frames && ok_within br a.a_offered_bytes;
  }

let emit_counters entry =
  if Registry.enabled () then begin
    Mutex.lock handles_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock handles_lock) @@ fun () ->
    List.iter
      (fun e ->
        let site = e.e_site in
        let h = site_handles site in
        Registry.inc h.offered_frames e.e_offered_frames;
        Registry.inc h.offered_bytes e.e_offered_bytes;
        Registry.inc h.stored_frames e.e_stored_frames;
        Registry.inc h.stored_bytes e.e_stored_bytes;
        List.iter
          (fun (cause, frames, bytes, _) ->
            let frames_counter, bytes_counter = cause_handles h site cause in
            Registry.inc frames_counter frames;
            Registry.inc bytes_counter bytes)
          e.e_causes)
      entry.o_sites
  end

let close_occasion ?(log = fun _ -> ()) t =
  let entry, violations =
    locked t @@ fun () ->
    let sites =
      Hashtbl.fold (fun site a acc -> close_site site a :: acc) t.l_current []
      |> List.sort (fun a b -> compare a.e_site b.e_site)
    in
    let entry = { o_seq = t.l_seq; o_start = t.l_start; o_sites = sites } in
    t.l_seq <- t.l_seq + 1;
    Hashtbl.reset t.l_current;
    t.l_history <-
      List.filteri (fun i _ -> i < history_cap) (entry :: t.l_history);
    let violations =
      List.filter_map
        (fun e ->
          if e.e_conserved then None
          else
            Some
              (Printf.sprintf
                 "ledger conservation violated: site %s occasion %d: offered \
                  %.3f frames / %.3f bytes, stored %.3f / %.3f, residual \
                  %.6f frames / %.6f bytes"
                 e.e_site entry.o_seq e.e_offered_frames e.e_offered_bytes
                 e.e_stored_frames e.e_stored_bytes e.e_frames_residual
                 e.e_bytes_residual))
        sites
    in
    (entry, violations)
  in
  emit_counters entry;
  List.iter
    (fun msg ->
      if Registry.enabled () then Registry.incr (obs_violations ());
      log msg)
    violations;
  (match violations with
  | msg :: _ when strict () -> raise (Conservation_violation msg)
  | _ -> ());
  entry

let history t = locked t (fun () -> List.rev t.l_history)

let reset t =
  locked t @@ fun () ->
  Hashtbl.reset t.l_current;
  t.l_start <- 0.0;
  t.l_seq <- 0;
  t.l_history <- []

(* --- JSON (the /lossmap.json payload) ------------------------------ *)

let site_json e =
  Export.Json.Obj
    [
      ("site", Export.Json.Str e.e_site);
      ( "offered",
        Export.Json.Obj
          [
            ("frames", Export.Json.Num e.e_offered_frames);
            ("bytes", Export.Json.Num e.e_offered_bytes);
          ] );
      ( "stored",
        Export.Json.Obj
          [
            ("frames", Export.Json.Num e.e_stored_frames);
            ("bytes", Export.Json.Num e.e_stored_bytes);
          ] );
      ( "residual",
        Export.Json.Obj
          [
            ("frames", Export.Json.Num e.e_frames_residual);
            ("bytes", Export.Json.Num e.e_bytes_residual);
          ] );
      ("conserved", Export.Json.Bool e.e_conserved);
      ( "causes",
        Export.Json.Arr
          (List.map
             (fun (cause, frames, bytes, exemplars) ->
               Export.Json.Obj
                 [
                   ("cause", Export.Json.Str (cause_label cause));
                   ("frames", Export.Json.Num frames);
                   ("bytes", Export.Json.Num bytes);
                   ( "exemplars",
                     Export.Json.Arr
                       (List.map (fun k -> Export.Json.Str k) exemplars) );
                 ])
             e.e_causes) );
    ]

let to_json ?site ?occasion t =
  let occasions =
    List.filter_map
      (fun o ->
        if match occasion with Some s -> s <> o.o_seq | None -> false then None
        else begin
          let sites =
            match site with
            | None -> o.o_sites
            | Some s ->
              List.filter (fun e -> String.equal e.e_site s) o.o_sites
          in
          if sites = [] && site <> None then None
          else
            Some
              (Export.Json.Obj
                 [
                   ("seq", Export.Json.Num (float_of_int o.o_seq));
                   ("start", Export.Json.Num o.o_start);
                   ("sites", Export.Json.Arr (List.map site_json sites));
                 ])
        end)
      (history t)
  in
  Export.Json.Obj
    [
      ("tolerance", Export.Json.Num tolerance);
      ("occasions", Export.Json.Arr occasions);
    ]
