type op = Gt | Lt

type rule = {
  rule_name : string;
  series_name : string;
  op : op;
  threshold : float;
  for_count : int;
}

let op_to_string = function Gt -> ">" | Lt -> "<"

let base_to_string r =
  Printf.sprintf "%s %s %g%s" r.series_name (op_to_string r.op) r.threshold
    (if r.for_count = 1 then "" else Printf.sprintf " for %d" r.for_count)

let rule ~series ~op ~threshold ?(for_count = 1) () =
  if for_count < 1 then invalid_arg "Obs.Alerts.rule: for_count must be >= 1";
  let r =
    { rule_name = ""; series_name = series; op; threshold; for_count }
  in
  { r with rule_name = base_to_string r }

let rule_of_string s =
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim s))
  in
  let parse_op = function
    | ">" -> Some Gt
    | "<" -> Some Lt
    | _ -> None
  in
  match tokens with
  | [ series; op; thr ] | [ series; op; thr; "for"; _ ] as l -> (
    let for_count =
      match l with
      | [ _; _; _; "for"; n ] -> int_of_string_opt n
      | _ -> Some 1
    in
    match (parse_op op, float_of_string_opt thr, for_count) with
    | Some op, Some threshold, Some n when n >= 1 ->
      Ok (rule ~series ~op ~threshold ~for_count:n ())
    | None, _, _ -> Error (Printf.sprintf "bad comparator %S (expected > or <)" op)
    | _, None, _ -> Error (Printf.sprintf "bad threshold %S" thr)
    | _, _, _ -> Error "bad 'for' count (expected an integer >= 1)")
  | _ ->
    Error
      (Printf.sprintf "cannot parse rule %S (expected: <series> >|< <threshold> [for <n>])"
         s)

type transition = Fired | Cleared

type event = {
  ev_rule : string;
  ev_labels : Registry.labels;
  ev_at : float;
  ev_value : float;
  ev_transition : transition;
}

type state = {
  mutable consecutive : int;
  mutable firing : bool;
  mutable last_value : float;
  mutable since : float;
  mutable last_at : float; (* timestamp of the last evaluated point *)
}

type t = {
  lock : Mutex.t;
  registry : Registry.t;
  mutable rule_list : rule list; (* reverse registration order *)
  states : (string * Registry.labels, state) Hashtbl.t; (* rule_name, labels *)
}

let create ?(registry = Registry.default) rules =
  {
    lock = Mutex.create ();
    registry;
    rule_list = List.rev rules;
    states = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rules t = locked t (fun () -> List.rev t.rule_list)

let violates op threshold v =
  match op with Gt -> v > threshold | Lt -> v < threshold

let active_gauge t rule_name labels =
  Registry.gauge t.registry "patchwork_alert_active"
    ~help:"1 while the named alert rule is firing"
    ~labels:(("rule", rule_name) :: labels)

(* Feed one sample of [r]'s series through the consecutive-violation
   state machine; appends any transition to [events].  Both live
   evaluation and history replay ({!rearm}) go through here, so a
   killed-and-restarted service reconstructs the exact pre-kill state. *)
let step t r labels ~at (p : Series.point) events =
  let key = (r.rule_name, labels) in
  let st =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.states key with
    | Some st -> st
    | None ->
      let st =
        {
          consecutive = 0;
          firing = false;
          last_value = 0.0;
          since = 0.0;
          last_at = Float.nan;
        }
      in
      Hashtbl.add t.states key st;
      st
  in
  locked t @@ fun () ->
  (* A series with no new point since the last evaluate (e.g. a
     histogram-backed series before the pool runs) must not re-count
     the same sample toward "for N". *)
  if p.Series.at = st.last_at then ()
  else begin
    st.last_at <- p.Series.at;
    st.last_value <- p.Series.value;
    if violates r.op r.threshold p.Series.value then begin
      st.consecutive <- st.consecutive + 1;
      if (not st.firing) && st.consecutive >= r.for_count then begin
        st.firing <- true;
        st.since <- at;
        Registry.set (active_gauge t r.rule_name labels) 1.0;
        events :=
          {
            ev_rule = r.rule_name;
            ev_labels = labels;
            ev_at = at;
            ev_value = p.Series.value;
            ev_transition = Fired;
          }
          :: !events
      end
    end
    else begin
      st.consecutive <- 0;
      if st.firing then begin
        st.firing <- false;
        Registry.set (active_gauge t r.rule_name labels) 0.0;
        events :=
          {
            ev_rule = r.rule_name;
            ev_labels = labels;
            ev_at = at;
            ev_value = p.Series.value;
            ev_transition = Cleared;
          }
          :: !events
      end
    end
  end

let evaluate t ~at collector =
  let rules = rules t in
  let events = ref [] in
  List.iter
    (fun r ->
      let matching =
        List.filter
          (fun s -> Series.name s = r.series_name)
          (Series.Collector.series collector)
      in
      List.iter
        (fun s ->
          match Series.last s with
          | None -> ()
          | Some p -> step t r (Series.labels s) ~at p events)
        matching)
    rules;
  List.rev !events

(* Replay persisted history (per series, points oldest-first) through
   the same state machine the live loop uses.  Points are replayed in
   global timestamp order, one evaluation round per distinct timestamp
   — exactly the cadence of the live collect-then-evaluate hook, whose
   evaluation [at] equals the points' own collection timestamp.  The
   replayed transitions are returned (callers usually discard them:
   they already fired before the restart); the firing/consecutive
   state and the [patchwork_alert_active] gauge come out identical to a
   service that never died. *)
let rearm t history =
  let rules = rules t in
  let samples =
    List.concat_map
      (fun (name, labels, pts) ->
        List.map
          (fun (at, value) ->
            (at, name, List.sort compare labels, { Series.at; value }))
          pts)
      history
  in
  let samples =
    List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) samples
  in
  let events = ref [] in
  List.iter
    (fun (at, name, labels, p) ->
      List.iter
        (fun r -> if String.equal r.series_name name then step t r labels ~at p events)
        rules)
    samples;
  List.rev !events

let active t =
  let rules = rules t in
  let l =
    locked t @@ fun () ->
    Hashtbl.fold
      (fun (rule_name, labels) st acc ->
        if st.firing then
          match List.find_opt (fun r -> r.rule_name = rule_name) rules with
          | Some r -> (r, labels, st.last_value) :: acc
          | None -> acc
        else acc)
      t.states []
  in
  List.sort
    (fun (a, la, _) (b, lb, _) ->
      match compare a.rule_name b.rule_name with
      | 0 -> compare la lb
      | c -> c)
    l

let labels_json labels =
  Export.Json.Obj (List.map (fun (k, v) -> (k, Export.Json.Str v)) labels)

let to_json t =
  let actives = active t in
  Export.Json.Obj
    [
      ( "rules",
        Export.Json.Arr
          (List.map
             (fun r ->
               Export.Json.Obj
                 [
                   ("name", Export.Json.Str r.rule_name);
                   ("series", Export.Json.Str r.series_name);
                   ("op", Export.Json.Str (op_to_string r.op));
                   ("threshold", Export.Json.Num r.threshold);
                   ("for", Export.Json.Num (float_of_int r.for_count));
                 ])
             (rules t)) );
      ( "active",
        Export.Json.Arr
          (List.map
             (fun (r, labels, v) ->
               Export.Json.Obj
                 ([ ("rule", Export.Json.Str r.rule_name) ]
                 @ (match labels with [] -> [] | l -> [ ("labels", labels_json l) ])
                 @ [ ("value", Export.Json.Num v) ]))
             actives) );
    ]

let event_to_string e =
  Printf.sprintf "ALERT %s: %s%s value=%g"
    (match e.ev_transition with Fired -> "fired" | Cleared -> "cleared")
    e.ev_rule
    (match e.ev_labels with
    | [] -> ""
    | l ->
      " {"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
      ^ "}")
    e.ev_value
