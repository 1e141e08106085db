(* On-disk time-series store: sorted binary segments + k-way-merge query.

   The rolling [Series] windows are capacity-bounded RAM: a service
   restart erases all history and a long run evicts its own past.  The
   Tsdb makes telemetry durable as append-only sorted [Segment] files,
   the layer it shares with the flow store: one commit per segment,
   [Corrupt] on any validation failure, and bounded-memory reads by a
   k-way merge holding one record per segment in flight.

   One record is either a raw point (the very float pushed into a
   series) or a downsampled bucket carrying count/sum/min/max/last for
   an aligned [res]-second window — enough to answer rate, averages and
   sparklines from history long after the raw points were compacted
   away.  Folding raw points into a bucket adds their values
   left-to-right in timestamp order, so for the monotone appends our
   collectors produce the folded count/sum/min/max are bit-identical
   to recomputing from the raw points the bucket replaced, no matter
   where compactions (or kills and restarts) fell between appends. *)

type record = {
  t_name : string;
  t_labels : Registry.labels; (* canonically sorted *)
  t_at : float; (* raw timestamp, or bucket start *)
  t_res : float; (* 0 = raw point; else the bucket width, seconds *)
  t_count : int;
  t_sum : float;
  t_min : float;
  t_max : float;
  t_last : float;
  t_last_at : float;
}

exception Corrupt = Segment.Corrupt

let raw_point ~name ?(labels = []) ~at value =
  {
    t_name = name;
    t_labels = List.sort compare labels;
    t_at = at;
    t_res = 0.0;
    t_count = 1;
    t_sum = value;
    t_min = value;
    t_max = value;
    t_last = value;
    t_last_at = at;
  }

let is_raw r = r.t_res = 0.0

(* The value a record contributes to a rendered series: a raw point is
   itself; a bucket stands in with its last raw point. *)
let point_of_record r = (r.t_last_at, r.t_last)

(* A record's time extent, used by predicates and retention. *)
let record_end r = if is_raw r then r.t_at else r.t_at +. r.t_res

(* Total order: series first, then time, raw before any bucket that
   starts at the same instant. *)
let compare_record a b =
  match compare a.t_name b.t_name with
  | 0 -> (
    match compare a.t_labels b.t_labels with
    | 0 -> (
      match compare a.t_at b.t_at with 0 -> compare a.t_res b.t_res | c -> c)
    | c -> c)
  | c -> c

(* --- observability ------------------------------------------------- *)

let obs_segments_written =
  Registry.counter Registry.default "tsdb_segments_written_total"
    ~help:"Time-series segment files written (flushes + compactions)"

let obs_points_written =
  Registry.counter Registry.default "tsdb_records_written_total"
    ~help:"Time-series records written to segment files"

let obs_records_scanned =
  Registry.counter Registry.default "tsdb_records_scanned_total"
    ~help:"Time-series records read from segments by queries"

let obs_queries =
  Registry.counter Registry.default "tsdb_queries_total"
    ~help:"Range queries answered over stored segments"

let obs_compactions =
  Registry.counter Registry.default "tsdb_compactions_total"
    ~help:"Segment compactions (retention + downsampling rewrites)"

let obs_points_downsampled =
  Registry.counter Registry.default "tsdb_records_downsampled_total"
    ~help:"Raw points folded into downsampled buckets by compactions"

let obs_removed_uncommitted, obs_removed_superseded =
  let removed reason =
    Registry.counter Registry.default "tsdb_segments_removed_total"
      ~help:
        "Files deleted at open: temporaries of a killed write \
         (uncommitted) and inputs a committed merge replaced (superseded)"
      ~labels:[ ("reason", reason) ]
  in
  (removed "uncommitted", removed "superseded")

(* --- segment schema ------------------------------------------------ *)

(* Record: u16 name_len, name, u8 n_labels, per label u16 klen, key,
   u16 vlen, value; u8 kind; then for kind 0 (raw) f64 at, f64 value
   and for kind 1 (bucket) f64 bucket_start, f64 res, u32 count,
   f64 sum, f64 min, f64 max, f64 last, f64 last_at.  Everything
   little-endian; the header and its checks are [Segment]'s.

   Ties are legal: two sources may report the same series at the same
   instant (e.g. a local and a federated aggregate), and the writer's
   stable sort keeps such duplicates adjacent. *)

let encode buf (r : record) =
  Segment.add_str buf r.t_name;
  if List.length r.t_labels > 0xFF then
    invalid_arg "Obs.Tsdb: more than 255 labels";
  Buffer.add_uint8 buf (List.length r.t_labels);
  List.iter
    (fun (k, v) ->
      Segment.add_str buf k;
      Segment.add_str buf v)
    r.t_labels;
  if is_raw r then begin
    Buffer.add_uint8 buf 0;
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_at);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_sum)
  end
  else begin
    Buffer.add_uint8 buf 1;
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_at);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_res);
    Buffer.add_int32_le buf (Int32.of_int r.t_count);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_sum);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_min);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_max);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_last);
    Buffer.add_int64_le buf (Int64.bits_of_float r.t_last_at)
  end

let decode c =
  let name = Segment.str c "series name" in
  let n_labels = Bytes.get_uint8 (Segment.field c 1 "label count") 0 in
  let labels =
    List.init n_labels (fun _ ->
        let k = Segment.str c "label key" in
        let v = Segment.str c "label value" in
        (k, v))
  in
  let r =
    match Bytes.get_uint8 (Segment.field c 1 "record kind") 0 with
    | 0 ->
      let fixed = Segment.field c 16 "raw point" in
      let at = Int64.float_of_bits (Bytes.get_int64_le fixed 0) in
      let value = Int64.float_of_bits (Bytes.get_int64_le fixed 8) in
      {
        t_name = name;
        t_labels = labels;
        t_at = at;
        t_res = 0.0;
        t_count = 1;
        t_sum = value;
        t_min = value;
        t_max = value;
        t_last = value;
        t_last_at = at;
      }
    | 1 ->
      let fixed = Segment.field c 60 "bucket body" in
      let f64 off = Int64.float_of_bits (Bytes.get_int64_le fixed off) in
      {
        t_name = name;
        t_labels = labels;
        t_at = f64 0;
        t_res = f64 8;
        t_count = Int32.to_int (Bytes.get_int32_le fixed 16);
        t_sum = f64 20;
        t_min = f64 28;
        t_max = f64 36;
        t_last = f64 44;
        t_last_at = f64 52;
      }
    | k -> Segment.invalid c "invalid record kind 0x%02x" k
  in
  if List.sort compare labels <> labels then
    Segment.invalid c "labels not sorted";
  if r.t_res > 0.0 then begin
    if r.t_count < 1 then Segment.invalid c "bucket with count %d" r.t_count;
    if r.t_min > r.t_max then Segment.invalid c "bucket with min > max"
  end
  else if r.t_res < 0.0 then Segment.invalid c "negative resolution";
  r

let schema =
  {
    Segment.magic = "PWTS";
    suffix = ".pwts";
    compare = compare_record;
    encode;
    decode;
    ties = true;
  }

(* --- predicates ---------------------------------------------------- *)

type predicate = {
  q_since : float option;
  q_until : float option;
  q_name : string option;
  q_labels : Registry.labels; (* all pairs must be present *)
}

let no_predicate = { q_since = None; q_until = None; q_name = None; q_labels = [] }

let predicate ?since ?until ?name ?(labels = []) () =
  { q_since = since; q_until = until; q_name = name; q_labels = labels }

let matches p (r : record) =
  (match p.q_name with None -> true | Some n -> String.equal n r.t_name)
  && List.for_all
       (fun (k, v) ->
         match List.assoc_opt k r.t_labels with
         | Some v' -> String.equal v v'
         | None -> false)
       p.q_labels
  && (match p.q_since with None -> true | Some t -> record_end r >= t)
  && match p.q_until with None -> true | Some t -> r.t_at <= t

(* --- store handle -------------------------------------------------- *)

(* Flushes write tsdb-NNNNNN.pwts; a compaction writes its merge as
   tsdb-NNNNNN-merged.pwts, at an index past every input's. *)
let segment_path dir index ~merged =
  Filename.concat dir
    (Printf.sprintf "tsdb-%06d%s.pwts" index (if merged then "-merged" else ""))

let is_merge path = Filename.check_suffix path "-merged.pwts"

let index_of_path path =
  (* Foreign names count as index -1. *)
  Option.value ~default:(-1)
    (Scanf.sscanf_opt (Filename.basename path) "tsdb-%d" Fun.id)

(* The live segments: the last merge and every segment after it.  A
   compaction renames its merge into place before it removes its
   inputs, so an input still beside a later merge is superseded. *)
let segments_in_dir dir =
  let rec live acc = function
    | [] -> acc
    | p :: _ when is_merge p -> p :: acc
    | p :: older -> live (p :: acc) older
  in
  live [] (List.rev (Segment.in_dir schema dir))

type t = {
  dir : string;
  retention : float option;
  resolution : float option;
  lock : Mutex.t;
  mutable buf : record list; (* reversed arrival order; flush sorts *)
  mutable buffered : int;
  mutable seg_index : int;
}

(* Open (or create) a store directory, deleting what a killed writer
   left: temporaries of an uncommitted write, and the inputs of a
   compaction killed after its merge was committed. *)
let open_store ?retention ?resolution ~dir () =
  (match retention with
  | Some r when r <= 0.0 -> invalid_arg "Obs.Tsdb.open_store: retention <= 0"
  | _ -> ());
  (match resolution with
  | Some r when r <= 0.0 -> invalid_arg "Obs.Tsdb.open_store: resolution <= 0"
  | _ -> ());
  Segment.mkdir_p dir;
  let uncommitted = Segment.remove_uncommitted schema dir in
  let live = segments_in_dir dir in
  let superseded =
    List.filter (fun p -> not (List.mem p live)) (Segment.in_dir schema dir)
  in
  List.iter Sys.remove superseded;
  Registry.inc obs_removed_uncommitted (float_of_int uncommitted);
  Registry.inc obs_removed_superseded (float_of_int (List.length superseded));
  let seg_index =
    List.fold_left (fun acc p -> max acc (index_of_path p + 1)) 0 live
  in
  {
    dir;
    retention;
    resolution;
    lock = Mutex.create ();
    buf = [];
    buffered = 0;
    seg_index;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dir t = t.dir
let segments t = segments_in_dir t.dir

let append t records =
  locked t @@ fun () ->
  List.iter
    (fun r ->
      if r.t_count < 1 then invalid_arg "Obs.Tsdb.append: record count < 1";
      t.buf <- r :: t.buf;
      t.buffered <- t.buffered + 1)
    records

let append_point t ~name ?(labels = []) ~at value =
  append t [ raw_point ~name ~labels ~at value ]

(* --- downsampling compaction --------------------------------------- *)

let bucket_start ~resolution at = Float.of_int (int_of_float (Float.floor (at /. resolution))) *. resolution

(* Fold [b] (later in merge order) into [a]; both cover the same
   series.  Values are added in arrival order, which for monotone
   appends is timestamp order — the same order a recomputation over the
   raw points would use. *)
let absorb a b =
  {
    a with
    t_count = a.t_count + b.t_count;
    t_sum = a.t_sum +. b.t_sum;
    t_min = Float.min a.t_min b.t_min;
    t_max = Float.max a.t_max b.t_max;
    t_last = (if b.t_last_at >= a.t_last_at then b.t_last else a.t_last);
    t_last_at = Float.max a.t_last_at b.t_last_at;
  }

(* Merge every segment into one, applying retention and downsampling.
   Both cutoffs derive from the newest timestamp stored — never the
   wall clock — so compaction is a pure function of the store's
   contents and a killed-and-resumed service converges on the same
   bytes as an uninterrupted one.

   Downsampling folds a raw point into its aligned bucket only once the
   bucket has completely passed (bucket end <= newest): with monotone
   appends no later point can land in a folded bucket, so a bucket's
   aggregates are final the moment they are formed. *)
let compact t =
  Span.timed ~stage:"tsdb.compact" @@ fun () ->
  locked t @@ fun () ->
  let paths = segments_in_dir t.dir in
  if paths <> [] then begin
    (* Pass 1: the newest timestamp (bounded memory: running max). *)
    let newest = ref neg_infinity in
    ignore
      (Segment.scan schema paths (fun r ->
           if record_end r > !newest then newest := record_end r));
    let keep r =
      match t.retention with
      | None -> true
      | Some ret -> record_end r >= !newest -. ret
    in
    let fold_cutoff = !newest in
    (* Pass 2: merge into one segment, folding complete buckets.  The
       merge yields records per series in time order, so one pending
       bucket per series is the whole folding state. *)
    let out = ref [] in
    let pending = ref None in
    let emit () =
      match !pending with
      | Some r ->
        pending := None;
        out := r :: !out
      | None -> ()
    in
    let on_record r =
      if keep r then begin
        match t.resolution with
        | None -> out := r :: !out
        | Some res ->
          let foldable cand =
            (* Raw points in a fully passed bucket, or buckets of the
               same resolution (re-folding earlier compactions). *)
            if is_raw cand then
              bucket_start ~resolution:res cand.t_at +. res <= fold_cutoff
            else cand.t_res = res
          in
          if not (foldable r) then begin
            emit ();
            out := r :: !out
          end
          else begin
            let start =
              if is_raw r then bucket_start ~resolution:res r.t_at else r.t_at
            in
            let as_bucket = { r with t_at = start; t_res = res } in
            match !pending with
            | Some p
              when String.equal p.t_name r.t_name
                   && p.t_labels = r.t_labels && p.t_at = start ->
              if Registry.enabled () && is_raw r then
                Registry.incr obs_points_downsampled;
              pending := Some (absorb p as_bucket)
            | _ ->
              emit ();
              if Registry.enabled () && is_raw r then
                Registry.incr obs_points_downsampled;
              pending := Some as_bucket
          end
      end
    in
    ignore (Segment.scan schema paths on_record);
    emit ();
    let records = List.rev !out in
    let path = segment_path t.dir t.seg_index ~merged:true in
    t.seg_index <- t.seg_index + 1;
    (* The merge is committed before any input goes: a kill in between
       leaves inputs that [segments_in_dir] no longer lists. *)
    ignore (Segment.write schema path records);
    List.iter Sys.remove paths;
    if Registry.enabled () then begin
      Registry.incr obs_compactions;
      Registry.incr obs_segments_written;
      Registry.inc obs_points_written (float_of_int (List.length records))
    end
  end

(* Write the buffered records as one new segment, then, when the store
   applies retention or downsampling, compact once it holds two live
   segments.  Returns the number of records flushed. *)
let flush t =
  let n, needs_compact =
    locked t @@ fun () ->
    if t.buffered = 0 then (0, false)
    else begin
      Span.timed ~stage:"tsdb.flush" @@ fun () ->
      let path = segment_path t.dir t.seg_index ~merged:false in
      t.seg_index <- t.seg_index + 1;
      let count = t.buffered in
      ignore (Segment.write schema path t.buf);
      if Registry.enabled () then begin
        Registry.incr obs_segments_written;
        Registry.inc obs_points_written (float_of_int count)
      end;
      t.buf <- [];
      t.buffered <- 0;
      let wants_rewrite = t.retention <> None || t.resolution <> None in
      ( count,
        wants_rewrite
        && List.length (segments_in_dir t.dir) >= 2 )
    end
  in
  if needs_compact then compact t;
  n

(* --- range queries ------------------------------------------------- *)

(* Bounded-memory streaming fold over matching records in (series,
   time) order: the in-flight state is one record per segment. *)
let fold ?(pred = no_predicate) ~init ~f paths =
  Span.timed ~stage:"tsdb.query" @@ fun () ->
  let acc = ref init in
  let scanned =
    Segment.scan schema paths (fun r -> if matches pred r then acc := f !acc r)
  in
  if Registry.enabled () then begin
    Registry.incr obs_queries;
    Registry.inc obs_records_scanned (float_of_int scanned)
  end;
  !acc

(* Matching records grouped per series, series in canonical order. *)
let query ?(pred = no_predicate) paths =
  let groups =
    fold ~pred paths ~init:[] ~f:(fun acc r ->
        match acc with
        | (name, labels, records) :: rest
          when String.equal name r.t_name && labels = r.t_labels ->
          (name, labels, r :: records) :: rest
        | _ -> (r.t_name, r.t_labels, [ r ]) :: acc)
  in
  List.rev_map (fun (name, labels, records) -> (name, labels, List.rev records)) groups

(* Store-level query: holds the store lock for the whole scan so a
   concurrent flush/compact (which deletes merged-away segment files)
   cannot yank segments out from under the reader. *)
let query_store ?pred t =
  locked t (fun () -> query ?pred (segments_in_dir t.dir))

(* The last [n] rendered points per series — the tail a restarted
   service re-arms its alerts (and warms its memory windows) from. *)
let tail ?(pred = no_predicate) ~n paths =
  if n < 1 then invalid_arg "Obs.Tsdb.tail: n must be >= 1";
  let keep_last tail_pts p =
    (* tail_pts is newest-first and at most n long. *)
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take n (p :: tail_pts)
  in
  let groups =
    fold ~pred paths ~init:[] ~f:(fun acc r ->
        let p = point_of_record r in
        match acc with
        | (name, labels, pts) :: rest
          when String.equal name r.t_name && labels = r.t_labels ->
          (name, labels, keep_last pts p) :: rest
        | _ -> (r.t_name, r.t_labels, [ p ]) :: acc)
  in
  List.rev_map (fun (name, labels, pts) -> (name, labels, List.rev pts)) groups

let tail_store ~n t = locked t (fun () -> tail ~n (segments_in_dir t.dir))
