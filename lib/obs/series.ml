type point = { at : float; value : float }

type t = {
  lock : Mutex.t;
  s_name : string;
  s_labels : Registry.labels;
  ring : point option array;
  mutable start : int; (* index of the oldest retained point *)
  mutable len : int;
}

let create ?(capacity = 512) ~name ?(labels = []) () =
  if capacity < 1 then invalid_arg "Obs.Series.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    s_name = name;
    s_labels = List.sort compare labels;
    ring = Array.make capacity None;
    start = 0;
    len = 0;
  }

let name t = t.s_name
let labels t = t.s_labels
let capacity t = Array.length t.ring

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push t ~at value =
  locked t @@ fun () ->
  let cap = Array.length t.ring in
  let slot = (t.start + t.len) mod cap in
  t.ring.(slot) <- Some { at; value };
  if t.len < cap then t.len <- t.len + 1 else t.start <- (t.start + 1) mod cap

let length t = locked t (fun () -> t.len)

let points t =
  locked t @@ fun () ->
  List.init t.len (fun i ->
      match t.ring.((t.start + i) mod Array.length t.ring) with
      | Some p -> p
      | None -> assert false (* slots [0, len) are filled *))

let last t =
  locked t @@ fun () ->
  if t.len = 0 then None
  else t.ring.((t.start + t.len - 1) mod Array.length t.ring)

let rate t =
  locked t @@ fun () ->
  if t.len < 2 then None
  else begin
    let cap = Array.length t.ring in
    match
      ( t.ring.((t.start + t.len - 2) mod cap),
        t.ring.((t.start + t.len - 1) mod cap) )
    with
    | Some a, Some b when b.at > a.at -> Some ((b.value -. a.value) /. (b.at -. a.at))
    | _ -> None
  end

let avg_over t ~window =
  match points t with
  | [] -> None
  | ps ->
    let newest = (List.nth ps (List.length ps - 1)).at in
    let lo = newest -. window in
    let n = ref 0 and sum = ref 0.0 in
    List.iter
      (fun p ->
        if p.at >= lo then begin
          incr n;
          sum := !sum +. p.value
        end)
      ps;
    Some (!sum /. float_of_int !n)

let spark_levels = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                      "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let sparkline ?(width = 32) t =
  let ps = points t in
  let n = List.length ps in
  let ps = if n > width then List.filteri (fun i _ -> i >= n - width) ps else ps in
  match ps with
  | [] -> ""
  | ps ->
    let vs = List.map (fun p -> p.value) ps in
    let lo = List.fold_left Float.min infinity vs in
    let hi = List.fold_left Float.max neg_infinity vs in
    let buf = Buffer.create (3 * List.length vs) in
    List.iter
      (fun v ->
        let i =
          if hi <= lo then 0
          else
            min 7 (int_of_float (Float.of_int 8 *. (v -. lo) /. (hi -. lo)))
        in
        Buffer.add_string buf spark_levels.(i))
      vs;
    Buffer.contents buf

let make_series = create

module Collector = struct
  type series = t

  type t = {
    c_lock : Mutex.t;
    c_capacity : int;
    tbl : (string * Registry.labels, series) Hashtbl.t;
    (* Previous snapshot, flattened per cell: counters/gauges as a
       value, histograms as (count, non-cumulative bins). *)
    prev : (string * Registry.labels, float) Hashtbl.t;
    prev_bins : (string * Registry.labels, (float * int) list) Hashtbl.t;
    mutable prev_wall : float;
    mutable rounds : int;
  }

  let create ?(capacity = 512) () =
    if capacity < 1 then invalid_arg "Obs.Series.Collector.create: capacity must be >= 1";
    {
      c_lock = Mutex.create ();
      c_capacity = capacity;
      tbl = Hashtbl.create 32;
      prev = Hashtbl.create 64;
      prev_bins = Hashtbl.create 8;
      prev_wall = 0.0;
      rounds = 0;
    }

  let locked t f =
    Mutex.lock t.c_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.c_lock) f

  let get_series t name labels =
    let labels = List.sort compare labels in
    match Hashtbl.find_opt t.tbl (name, labels) with
    | Some s -> s
    | None ->
      let s = make_series ~capacity:t.c_capacity ~name ~labels () in
      Hashtbl.add t.tbl (name, labels) s;
      s

  (* Cumulative (bound, cum) buckets to non-cumulative (bound, bin). *)
  let bins_of_buckets buckets =
    let prev = ref 0 in
    List.map
      (fun (bound, cum) ->
        let bin = cum - !prev in
        prev := cum;
        (bound, bin))
      buckets

  (* p-quantile upper bound of a non-cumulative delta bin list. *)
  let quantile_of_bins p bins =
    let total = List.fold_left (fun acc (_, b) -> acc + b) 0 bins in
    if total = 0 then None
    else begin
      let target = max 1 (int_of_float (ceil (p *. float_of_int total))) in
      let rec go cum = function
        | [] -> None
        | (bound, bin) :: rest ->
          let cum = cum + bin in
          if cum >= target then Some bound else go cum rest
      in
      go 0 bins
    end

  let float_of_sample (s : Registry.sample) =
    match s.Registry.s_value with
    | Registry.Counter v | Registry.Gauge v -> Some v
    | Registry.Histogram _ -> None

  (* Append one externally computed point (federation staleness series,
     history warm-loads) to the named window. *)
  let push_point t ~name ?(labels = []) ~at value =
    push (get_series t name labels) ~at value

  let collect_points t ~at reg =
    let snap = Registry.snapshot reg in
    let wall = Clock.now () in
    locked t @@ fun () ->
    let pushed = ref [] in
    let record name labels v =
      let labels = List.sort compare labels in
      push (get_series t name labels) ~at v;
      pushed := (name, labels, { at; value = v }) :: !pushed
    in
    let delta name labels =
      let key = (name, List.sort compare labels) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.prev key) in
      let cur =
        List.find_map
          (fun (s : Registry.sample) ->
            if s.Registry.s_name = name && s.Registry.s_labels = snd key then
              float_of_sample s
            else None)
          snap
      in
      match cur with Some v -> v -. prev | None -> 0.0
    in
    let first = t.rounds = 0 in
    if not first then begin
      (* Per-site drop rate from the capture counters. *)
      let sites =
        List.filter_map
          (fun (s : Registry.sample) ->
            if s.Registry.s_name = "capture_offered_frames_total" then
              List.assoc_opt "site" s.Registry.s_labels
            else None)
          snap
      in
      List.iter
        (fun site ->
          let l = [ ("site", site) ] in
          let offered = delta "capture_offered_frames_total" l in
          let dropped =
            delta "capture_switch_dropped_frames_total" l
            +. delta "capture_host_dropped_frames_total" l
          in
          let v = if offered > 0.0 then dropped /. offered else 0.0 in
          record "site_drop_rate" l v)
        (List.sort_uniq compare sites);
      (* Captured bytes per second of the caller's time axis. *)
      (match Hashtbl.find_opt t.prev ("__at", []) with
      | Some prev_at when at > prev_at ->
        record "captured_bytes_per_s" []
          (delta "capture_stored_bytes_total" [] /. (at -. prev_at))
      | _ -> ());
      (* Pool busy fraction over the wall-clock delta. *)
      let domains =
        List.filter_map
          (fun (s : Registry.sample) ->
            if s.Registry.s_name = "pool_domain_busy_seconds_total" then
              List.assoc_opt "domain" s.Registry.s_labels
            else None)
          snap
      in
      let domains = List.sort_uniq compare domains in
      (match domains with
      | [] -> ()
      | _ ->
        let busy =
          List.fold_left
            (fun acc d ->
              acc +. delta "pool_domain_busy_seconds_total" [ ("domain", d) ])
            0.0 domains
        in
        let wall_dt = wall -. t.prev_wall in
        if wall_dt > 0.0 then
          record "pool_busy_fraction" []
            (Float.min 1.0
               (busy /. (wall_dt *. float_of_int (List.length domains)))));
      (* Occasion outcome counts (the Fig.-10 series, per collect). *)
      List.iter
        (fun outcome ->
          let l = [ ("outcome", outcome) ] in
          record "occasion_outcome_count" l (delta "occasion_sites_total" l))
        [ "success"; "degraded"; "failed"; "incomplete" ];
      (* Queue-wait p99 from the delta histogram. *)
      let qw_key = ("pool_queue_wait_seconds", []) in
      let cur_bins =
        List.find_map
          (fun (s : Registry.sample) ->
            match (s.Registry.s_name, s.Registry.s_value) with
            | "pool_queue_wait_seconds", Registry.Histogram h ->
              Some (bins_of_buckets h.Registry.h_buckets)
            | _ -> None)
          snap
      in
      (match cur_bins with
      | None -> ()
      | Some bins ->
        let prev_bins =
          Option.value ~default:[] (Hashtbl.find_opt t.prev_bins qw_key)
        in
        let deltas =
          List.map
            (fun (bound, bin) ->
              let before =
                Option.value ~default:0 (List.assoc_opt bound prev_bins)
              in
              (bound, max 0 (bin - before)))
            bins
        in
        let v = Option.value ~default:0.0 (quantile_of_bins 0.99 deltas) in
        record "pool_queue_wait_p99" [] v);
      (* Loss-attribution ledger series.  One point per side of the
         conservation identity per collect, so the invariant stays
         checkable from persisted history alone: per (site, at),
         ledger_offered_frames = ledger_stored_frames +
         Σ loss_attributed_frames{cause} (untouched cells pushed no
         point and contribute zero; downsampled buckets are
         sum-preserving, so the identity survives compaction too). *)
      let ledger_sites =
        List.filter_map
          (fun (s : Registry.sample) ->
            if s.Registry.s_name = "ledger_offered_frames_total" then
              List.assoc_opt "site" s.Registry.s_labels
            else None)
          snap
      in
      List.iter
        (fun site ->
          let l = [ ("site", site) ] in
          let offered = delta "ledger_offered_frames_total" l in
          if offered > 0.0 then begin
            record "ledger_offered_frames" l offered;
            record "ledger_offered_bytes" l
              (delta "ledger_offered_bytes_total" l);
            record "ledger_stored_frames" l
              (delta "ledger_stored_frames_total" l);
            record "ledger_stored_bytes" l
              (delta "ledger_stored_bytes_total" l)
          end)
        (List.sort_uniq compare ledger_sites);
      List.iter
        (fun (s : Registry.sample) ->
          if s.Registry.s_name = "ledger_attributed_frames_total" then begin
            let l = s.Registry.s_labels in
            let frames = delta "ledger_attributed_frames_total" l in
            let bytes = delta "ledger_attributed_bytes_total" l in
            if frames <> 0.0 || bytes <> 0.0 then begin
              record "loss_attributed_frames" l frames;
              record "loss_attributed_bytes" l bytes
            end
          end)
        snap
    end;
    (* Refresh the baseline for the next collect. *)
    Hashtbl.reset t.prev;
    Hashtbl.reset t.prev_bins;
    List.iter
      (fun (s : Registry.sample) ->
        match s.Registry.s_value with
        | Registry.Counter v | Registry.Gauge v ->
          Hashtbl.replace t.prev (s.Registry.s_name, s.Registry.s_labels) v
        | Registry.Histogram h ->
          Hashtbl.replace t.prev_bins
            (s.Registry.s_name, s.Registry.s_labels)
            (bins_of_buckets h.Registry.h_buckets))
      snap;
    Hashtbl.replace t.prev ("__at", []) at;
    t.prev_wall <- wall;
    t.rounds <- t.rounds + 1;
    List.rev !pushed

  let collect t ~at reg = ignore (collect_points t ~at reg)
  let collections t = locked t (fun () -> t.rounds)

  let series t =
    let l = locked t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []) in
    List.sort
      (fun a b ->
        match compare a.s_name b.s_name with
        | 0 -> compare a.s_labels b.s_labels
        | c -> c)
      l

  let find t ?(labels = []) name =
    let labels = List.sort compare labels in
    locked t (fun () -> Hashtbl.find_opt t.tbl (name, labels))

  let to_json t =
    Export.Json.Obj
      [
        ( "series",
          Export.Json.Arr
            (List.map
               (fun s ->
                 Export.Json.Obj
                   ([ ("name", Export.Json.Str s.s_name) ]
                   @ (match s.s_labels with
                     | [] -> []
                     | ls ->
                       [
                         ( "labels",
                           Export.Json.Obj
                             (List.map (fun (k, v) -> (k, Export.Json.Str v)) ls)
                         );
                       ])
                   @ [
                       ( "points",
                         Export.Json.Arr
                           (List.map
                              (fun p ->
                                Export.Json.Obj
                                  [
                                    ("at", Export.Json.Num p.at);
                                    ("value", Export.Json.Num p.value);
                                  ])
                              (points s)) );
                     ]))
               (series t)) );
      ]
end
