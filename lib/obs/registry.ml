type labels = (string * string) list

(* Log2 bucket layout shared by every histogram: upper bounds 2^e for
   e in [min_exp, max_exp], plus a +Inf overflow slot.  Fixed bounds
   keep merges a plain element-wise sum. *)
let min_exp = -20 (* ~1e-6: microsecond latencies *)
let max_exp = 30 (* ~1e9: byte counts, queue depths *)
let bucket_count = max_exp - min_exp + 2 (* + overflow *)

let bound_of_index i =
  if i >= bucket_count - 1 then infinity else Float.pow 2.0 (float_of_int (min_exp + i))

(* Smallest i with v <= 2^(min_exp+i); non-positive values land in
   bucket 0.  frexp gives v = m * 2^e, m in [0.5, 1), so v <= 2^e with
   equality exactly when m = 0.5. *)
let bucket_index v =
  if v <= 0.0 || Float.is_nan v then 0
  else if v = infinity then bucket_count - 1
  else if Float.is_integer (Float.log2 v) then
    let e = int_of_float (Float.log2 v) in
    max 0 (min (bucket_count - 1) (e - min_exp))
  else begin
    let m, e = Float.frexp v in
    ignore m;
    max 0 (min (bucket_count - 1) (e - min_exp))
  end

type hist_state = {
  mutable hs_count : int;
  mutable hs_sum : float;
  hs_bins : int array; (* non-cumulative *)
}

type cell =
  | C_counter of float ref
  | C_gauge of float ref
  | C_hist of hist_state

type kind = K_counter | K_gauge | K_hist

type family = {
  f_help : string;
  f_kind : kind;
  f_cells : (labels, cell) Hashtbl.t;
}

type t = { lock : Mutex.t; families : (string, family) Hashtbl.t }

type counter = { c_lock : Mutex.t; c_cell : float ref }
type gauge = { g_lock : Mutex.t; g_cell : float ref }
type histogram = { h_lock : Mutex.t; h_cell : hist_state }

let create () = { lock = Mutex.create (); families = Hashtbl.create 64 }
let default = create ()

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let canon labels = List.sort compare labels

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_hist -> "histogram"

let new_cell = function
  | K_counter -> C_counter (ref 0.0)
  | K_gauge -> C_gauge (ref 0.0)
  | K_hist ->
    C_hist { hs_count = 0; hs_sum = 0.0; hs_bins = Array.make bucket_count 0 }

(* Registration takes the registry lock; updates take only the (shared)
   per-registry cell lock embedded in the handle.  One lock for all
   cells of a registry is enough: every instrumented update is batched
   (per range, per sample, per occasion), never per packet. *)
let register t ~help ~labels name kind =
  let labels = canon labels in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let fam =
        match Hashtbl.find_opt t.families name with
        | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf "Obs.Registry: %s already registered as a %s" name
                 (kind_name f.f_kind));
          f
        | None ->
          let f = { f_help = help; f_kind = kind; f_cells = Hashtbl.create 8 } in
          Hashtbl.add t.families name f;
          f
      in
      match Hashtbl.find_opt fam.f_cells labels with
      | Some c -> c
      | None ->
        let c = new_cell kind in
        Hashtbl.add fam.f_cells labels c;
        c)

let counter t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name K_counter with
  | C_counter r -> { c_lock = t.lock; c_cell = r }
  | _ -> assert false

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name K_gauge with
  | C_gauge r -> { g_lock = t.lock; g_cell = r }
  | _ -> assert false

let histogram t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name K_hist with
  | C_hist h -> { h_lock = t.lock; h_cell = h }
  | _ -> assert false

let inc c by =
  if by < 0.0 then invalid_arg "Obs.Registry.inc: negative increment";
  if Atomic.get enabled_flag then begin
    Mutex.lock c.c_lock;
    c.c_cell := !(c.c_cell) +. by;
    Mutex.unlock c.c_lock
  end

let incr c = inc c 1.0

let set g v =
  if Atomic.get enabled_flag then begin
    Mutex.lock g.g_lock;
    g.g_cell := v;
    Mutex.unlock g.g_lock
  end

let observe h v =
  if Atomic.get enabled_flag then begin
    Mutex.lock h.h_lock;
    let s = h.h_cell in
    s.hs_count <- s.hs_count + 1;
    s.hs_sum <- s.hs_sum +. v;
    let i = bucket_index v in
    s.hs_bins.(i) <- s.hs_bins.(i) + 1;
    Mutex.unlock h.h_lock
  end

(* --- snapshots --- *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;
}

type value =
  | Counter of float
  | Gauge of float
  | Histogram of hist_snapshot

type sample = {
  s_name : string;
  s_labels : labels;
  s_help : string;
  s_value : value;
}

let hist_snapshot_of (s : hist_state) =
  let buckets = ref [] in
  let cum = ref 0 in
  for i = 0 to bucket_count - 1 do
    if s.hs_bins.(i) > 0 then begin
      cum := !cum + s.hs_bins.(i);
      buckets := (bound_of_index i, !cum) :: !buckets
    end
  done;
  let buckets =
    match !buckets with
    | (b, _) :: _ when b = infinity -> List.rev !buckets
    | l -> List.rev ((infinity, !cum) :: l)
  in
  { h_count = s.hs_count; h_sum = s.hs_sum; h_buckets = buckets }

let value_of_cell = function
  | C_counter r -> Counter !r
  | C_gauge r -> Gauge !r
  | C_hist h -> Histogram (hist_snapshot_of h)

let snapshot t =
  Mutex.lock t.lock;
  let samples =
    Hashtbl.fold
      (fun name fam acc ->
        Hashtbl.fold
          (fun labels cell acc ->
            {
              s_name = name;
              s_labels = labels;
              s_help = fam.f_help;
              s_value = value_of_cell cell;
            }
            :: acc)
          fam.f_cells acc)
      t.families []
  in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match compare a.s_name b.s_name with
      | 0 -> compare a.s_labels b.s_labels
      | c -> c)
    samples

let value t ?(labels = []) name =
  let labels = canon labels in
  Mutex.lock t.lock;
  let v =
    match Hashtbl.find_opt t.families name with
    | None -> None
    | Some fam ->
      Option.map value_of_cell (Hashtbl.find_opt fam.f_cells labels)
  in
  Mutex.unlock t.lock;
  v
