type point = { at : float; value : float }

type t = {
  lock : Mutex.t;
  s_name : string;
  s_labels : Registry.labels;
  ring : point option array;
  mutable start : int; (* index of the oldest retained point *)
  mutable len : int;
}

(* Points each series retains. *)
let capacity = 512

let create ~name ?(labels = []) () =
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

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let push t ~at value =
  locked t @@ fun () ->
  let cap = Array.length t.ring in
  let slot = (t.start + t.len) mod cap in
  t.ring.(slot) <- Some { at; value };
  if t.len < cap then t.len <- t.len + 1 else t.start <- (t.start + 1) mod cap

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
    tbl : (string * Registry.labels, series) Hashtbl.t;
    (* The previous snapshot, one table per kind of cell: counters and
       gauges as a value, histograms as non-cumulative bins. *)
    mutable prev : (string * Registry.labels, float) Hashtbl.t;
    mutable prev_bins : (string * Registry.labels, (float * int) list) Hashtbl.t;
    mutable prev_at : float option;  (* [None] until the first collect *)
    mutable prev_wall : float;
  }

  let create () =
    {
      c_lock = Mutex.create ();
      tbl = Hashtbl.create 32;
      prev = Hashtbl.create 1;
      prev_bins = Hashtbl.create 1;
      prev_at = None;
      prev_wall = 0.0;
    }

  let locked t f =
    Mutex.lock t.c_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.c_lock) f

  (* [labels] sorted. *)
  let get_series t name labels =
    match Hashtbl.find_opt t.tbl (name, labels) with
    | Some s -> s
    | None ->
      let s = make_series ~name ~labels () in
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

  (* Append one externally computed point to the named window. *)
  let push_point t ~name ?(labels = []) ~at value =
    push (get_series t name (List.sort compare labels)) ~at value

  let collect_points t ~at reg =
    let snap = Registry.snapshot reg in
    let wall = Clock.now () in
    (* The snapshot read once, keyed by (name, sorted labels): every
       delta below looks its cell up here, and the tables become the
       next collect's baseline. *)
    let cur = Hashtbl.create (List.length snap) in
    let cur_bins = Hashtbl.create 8 in
    List.iter
      (fun (s : Registry.sample) ->
        let key = (s.Registry.s_name, s.Registry.s_labels) in
        match s.Registry.s_value with
        | Registry.Counter v | Registry.Gauge v -> Hashtbl.replace cur key v
        | Registry.Histogram h ->
          Hashtbl.replace cur_bins key (bins_of_buckets h.Registry.h_buckets))
      snap;
    let label_values name key =
      List.sort_uniq compare
        (List.filter_map
           (fun (s : Registry.sample) ->
             if s.Registry.s_name = name then List.assoc_opt key s.Registry.s_labels
             else None)
           snap)
    in
    locked t @@ fun () ->
    let pushed = ref [] in
    (* [record] and [delta] take labels sorted, as the snapshot keys
       them. *)
    let record name labels v =
      push (get_series t name labels) ~at v;
      pushed := (name, labels, { at; value = v }) :: !pushed
    in
    let delta name labels =
      match Hashtbl.find_opt cur (name, labels) with
      | Some v ->
        v -. Option.value ~default:0.0 (Hashtbl.find_opt t.prev (name, labels))
      | None -> 0.0
    in
    (match t.prev_at with
    | None -> ()
    | Some prev_at ->
      (* Captured bytes per second of the caller's time axis. *)
      if at > prev_at then
        record "captured_bytes_per_s" []
          (delta "capture_stored_bytes_total" [] /. (at -. prev_at));
      (* Pool busy fraction over the wall-clock delta. *)
      (match label_values "pool_domain_busy_seconds_total" "domain" with
      | [] -> ()
      | domains ->
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
      (match Hashtbl.find_opt cur_bins qw_key with
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
         point and contribute zero).
         The per-site drop rate is the ledger's too: the frames
         neither stored nor skipped by the offload's stride (cause
         [sampled]) over those offered, and 0 when nothing was offered,
         so a [for N] alert clears. *)
      List.iter
        (fun site ->
          let l = [ ("site", site) ] in
          let offered = delta "ledger_offered_frames_total" l in
          let stored = delta "ledger_stored_frames_total" l in
          let sampled =
            delta "ledger_attributed_frames_total" [ ("cause", "sampled"); ("site", site) ]
          in
          if offered > 0.0 then begin
            record "ledger_offered_frames" l offered;
            record "ledger_offered_bytes" l
              (delta "ledger_offered_bytes_total" l);
            record "ledger_stored_frames" l stored;
            record "ledger_stored_bytes" l
              (delta "ledger_stored_bytes_total" l)
          end;
          record "site_drop_rate" l
            (if offered > 0.0 then (offered -. stored -. sampled) /. offered else 0.0))
        (label_values "ledger_offered_frames_total" "site");
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
        snap);
    t.prev <- cur;
    t.prev_bins <- cur_bins;
    t.prev_at <- Some at;
    t.prev_wall <- wall;
    List.rev !pushed

  let collect t ~at reg = ignore (collect_points t ~at reg)

  let series t =
    let l = locked t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []) in
    List.sort
      (fun a b ->
        match compare a.s_name b.s_name with
        | 0 -> compare a.s_labels b.s_labels
        | c -> c)
      l

end
