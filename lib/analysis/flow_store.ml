(* On-disk flow store: sorted binary segments + k-way-merge query.

   One record = the exact weighted contribution of one flow within one
   capture-sample group, tagged with the group's global sequence number.
   Keeping contributions per group (instead of pre-merging) is what lets
   the query engine replay the same float additions, in the same order,
   as the in-memory [Flows.merge] — so spilling is invisible to results,
   bit for bit, whatever the spill threshold or sampling fractions. *)

type record = {
  r_key : string;
  r_site : string;
  r_seq : int;
  r_frames : float;
  r_bytes : float;
  r_first : float;
  r_last : float;
  r_rst : bool;
}

exception Corrupt = Obs.Segment.Corrupt

(* Records sort by (key, seq); seqs are unique per group, so the order
   is total and strictly increasing within a segment. *)
let compare_record a b =
  match compare a.r_key b.r_key with 0 -> compare a.r_seq b.r_seq | c -> c

let proto_of_key key =
  match List.nth_opt (String.split_on_char '|' key) 4 with
  | Some p -> p
  | None -> "other"

(* --- observability ------------------------------------------------- *)

let obs_segments_written =
  Obs.Registry.counter Obs.Registry.default "flowstore_segments_written_total"
    ~help:"Flow-store segment files written (spills + final flushes)"

let obs_spill_bytes =
  Obs.Registry.counter Obs.Registry.default "flowstore_spill_bytes_total"
    ~help:"Bytes of flow records spilled to segment files"

let obs_records_written =
  Obs.Registry.counter Obs.Registry.default "flowstore_records_written_total"
    ~help:"Flow records written to segment files"

let obs_queries =
  Obs.Registry.counter Obs.Registry.default "flowstore_queries_total"
    ~help:"Queries answered over stored segments"

let obs_records_scanned =
  Obs.Registry.counter Obs.Registry.default "flowstore_records_scanned_total"
    ~help:"Flow records read from segments by queries"

let obs_scan_rate =
  Obs.Registry.histogram Obs.Registry.default "flowstore_query_scan_records_per_s"
    ~help:"Per-query segment scan rate, records per second"

let obs_unweighted =
  Obs.Registry.counter Obs.Registry.default "analysis_unweighted_samples_total"
    ~help:
      "Sample groups whose materialized_fraction was <= 0 and were \
       aggregated at weight 1.0"
    ~labels:[ ("stage", "flow_store") ]

(* --- segment schema ------------------------------------------------ *)

(* Record: u16 key_len, key, u16 site_len, site, u32 seq, 4 x f64
   (frames/bytes/first/last), u8 flags (bit 0 = RST).  Everything
   little-endian; the header, its checks and the commit are
   [Obs.Segment]'s, so a killed spill never yields part of a group. *)

let encode buf (r : record) =
  Obs.Segment.add_str buf r.r_key;
  Obs.Segment.add_str buf r.r_site;
  Buffer.add_int32_le buf (Int32.of_int r.r_seq);
  Buffer.add_int64_le buf (Int64.bits_of_float r.r_frames);
  Buffer.add_int64_le buf (Int64.bits_of_float r.r_bytes);
  Buffer.add_int64_le buf (Int64.bits_of_float r.r_first);
  Buffer.add_int64_le buf (Int64.bits_of_float r.r_last);
  Buffer.add_uint8 buf (if r.r_rst then 1 else 0)

let decode c =
  let r_key = Obs.Segment.str c "flow key" in
  let r_site = Obs.Segment.str c "site" in
  let fixed = Obs.Segment.field c 37 "record body" in
  let f64 off = Int64.float_of_bits (Bytes.get_int64_le fixed off) in
  let flags = Bytes.get_uint8 fixed 36 in
  if flags land lnot 1 <> 0 then
    Obs.Segment.invalid c "invalid flags byte 0x%02x" flags;
  {
    r_key;
    r_site;
    r_seq = Int32.to_int (Bytes.get_int32_le fixed 0);
    r_frames = f64 4;
    r_bytes = f64 12;
    r_first = f64 20;
    r_last = f64 28;
    r_rst = flags land 1 <> 0;
  }

let schema =
  {
    Obs.Segment.magic = "PWFS";
    suffix = ".pwfs";
    compare = compare_record;
    encode;
    decode;
    ties = false;
  }

(* --- spill writer -------------------------------------------------- *)

module Writer = struct
  type t = {
    dir : string;
    spill_records : int;
    mutable buf : record list;  (* reversed arrival order; spill sorts *)
    mutable buffered : int;
    mutable next_seq : int;
    mutable seg_index : int;
    mutable paths : string list;  (* reversed *)
    mutable bytes : int;
    mutable finished : bool;
  }

  (* One run per directory: a second run would restart at segment 0 and
     group seq 0, overwriting some of the first run's segments and
     replaying the rest under colliding seqs. *)
  let create ?(spill_records = 200_000) ~dir () =
    if spill_records < 1 then
      invalid_arg "Flow_store.Writer.create: spill_records < 1";
    if Obs.Segment.in_dir schema dir <> [] then
      invalid_arg
        ("Flow_store.Writer.create: " ^ dir
       ^ " already holds flow-store segments");
    Obs.Segment.mkdir_p dir;
    ignore (Obs.Segment.remove_uncommitted schema dir);
    {
      dir;
      spill_records;
      buf = [];
      buffered = 0;
      next_seq = 0;
      seg_index = 0;
      paths = [];
      bytes = 0;
      finished = false;
    }

  let check_live t what =
    if t.finished then invalid_arg ("Flow_store.Writer." ^ what ^ ": finished")

  let spill t =
    if t.buffered > 0 then begin
      Obs.Span.timed ~stage:"flowstore.spill" @@ fun () ->
      let path =
        Filename.concat t.dir (Printf.sprintf "flows-%06d.pwfs" t.seg_index)
      in
      let size = Obs.Segment.write schema path t.buf in
      if Obs.Registry.enabled () then begin
        Obs.Registry.incr obs_segments_written;
        Obs.Registry.inc obs_spill_bytes (float_of_int size);
        Obs.Registry.inc obs_records_written (float_of_int t.buffered)
      end;
      t.seg_index <- t.seg_index + 1;
      t.paths <- path :: t.paths;
      t.bytes <- t.bytes + size;
      t.buf <- [];
      t.buffered <- 0
    end

  (* Spills happen at group boundaries only, so a group's records never
     straddle segments and segment seq ranges never overlap. *)
  let maybe_spill t = if t.buffered >= t.spill_records then spill t

  let add_shard t ~site ~fraction shard =
    check_live t "add_shard";
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if fraction <= 0.0 && not (Flows.Shard.is_empty shard) then
      Obs.Registry.incr obs_unweighted;
    (* Each record holds the very product Flows.Totals adds for this
       group, so the query's replay in seq order repeats its sums. *)
    let n = ref 0 in
    t.buf <-
      Flows.Shard.fold_weighted shard ~weight:(Flows.weight_of_fraction fraction)
        ~init:t.buf ~f:(fun acc ~key ~frames ~bytes ~first ~last ~rst ->
          incr n;
          {
            r_key = key;
            r_site = site;
            r_seq = seq;
            r_frames = frames;
            r_bytes = bytes;
            r_first = first;
            r_last = last;
            r_rst = rst;
          }
          :: acc);
    t.buffered <- t.buffered + !n;
    maybe_spill t

  let finish t =
    check_live t "finish";
    spill t;
    t.finished <- true;
    List.rev t.paths

  let spilled_bytes t = t.bytes
end

let segments_in_dir dir = Obs.Segment.in_dir schema dir

(* --- query engine -------------------------------------------------- *)

type predicate = {
  q_since : float option;
  q_until : float option;
  q_site : string option;
  q_proto : string option;
}

let no_predicate = { q_since = None; q_until = None; q_site = None; q_proto = None }

let predicate ?since ?until ?site ?proto () =
  { q_since = since; q_until = until; q_site = site; q_proto = proto }

(* The index after the [bars]-th bar from [i] on, or [-1]. *)
let rec after_bars key i bars =
  if bars = 0 then i
  else if i >= String.length key then -1
  else after_bars key (i + 1) (if key.[i] = '|' then bars - 1 else bars)

(* Whether the field of [key] from [i] on is [s] from [j] on. *)
let rec field_is key i s j =
  if j = String.length s then i = String.length key || key.[i] = '|'
  else
    i < String.length key
    && key.[i] = s.[j]
    && key.[i] <> '|'
    && field_is key (i + 1) s (j + 1)

(* [String.equal proto (proto_of_key key)], comparing the key's fifth
   field in place instead of splitting the key. *)
let proto_is proto key =
  match after_bars key 0 4 with
  | -1 -> String.equal proto "other"
  | start -> field_is key start proto 0

let matches p (r : record) =
  (match p.q_site with None -> true | Some s -> String.equal s r.r_site)
  && (match p.q_since with None -> true | Some t -> r.r_last >= t)
  && (match p.q_until with None -> true | Some t -> r.r_first <= t)
  && match p.q_proto with None -> true | Some proto -> proto_is proto r.r_key

type query_stats = {
  segments_scanned : int;
  records_scanned : int;
  records_matched : int;
  distinct_flows : int;
  total_frames : float;
  total_bytes : float;
  wall_s : float;
}

type query_result = {
  flows : Flows.summary list;
  size_hist : Netcore.Histogram.Log2.t;
  stats : query_stats;
}

(* A key's sums, and a query's totals, in all-float records: OCaml
   stores their fields flat, so an add boxes nothing. *)
type sums = {
  mutable a_frames : float;
  mutable a_bytes : float;
  mutable a_first : float;
  mutable a_last : float;
}

type totals = { mutable t_frames : float; mutable t_bytes : float }

(* Per-key accumulator replaying exactly the operations of
   Flows.Totals.add: the first contribution sets the times and the sums
   start from 0.0, then add/min/max/or per contribution in seq order. *)
type acc = {
  mutable a_key : string;
  a_sums : sums;
  mutable a_rst : bool;
  mutable a_open : bool;  (* a contribution has been absorbed *)
}

let new_acc () =
  {
    a_key = "";
    a_sums = { a_frames = 0.0; a_bytes = 0.0; a_first = 0.0; a_last = 0.0 };
    a_rst = false;
    a_open = false;
  }

let absorb a (r : record) =
  let s = a.a_sums in
  if not a.a_open then begin
    a.a_open <- true;
    a.a_key <- r.r_key;
    s.a_frames <- 0.0;
    s.a_bytes <- 0.0;
    s.a_first <- r.r_first;
    s.a_last <- r.r_last;
    a.a_rst <- false
  end;
  s.a_frames <- s.a_frames +. r.r_frames;
  s.a_bytes <- s.a_bytes +. r.r_bytes;
  s.a_first <- Float.min s.a_first r.r_first;
  s.a_last <- Float.max s.a_last r.r_last;
  a.a_rst <- a.a_rst || r.r_rst

let summary a =
  let s = a.a_sums in
  {
    Flows.flow_key = a.a_key;
    frames = s.a_frames;
    bytes = s.a_bytes;
    first_seen = s.a_first;
    last_seen = s.a_last;
    rst_seen = a.a_rst;
  }

(* [Flows.compare_by_bytes (summary a) s], without building the
   summary. *)
let compare_acc a (s : Flows.summary) =
  match Float.compare s.Flows.bytes a.a_sums.a_bytes with
  | 0 -> String.compare a.a_key s.Flows.flow_key
  | c -> c

(* Bounded top-k selection: at most [k] summaries, worst first, under
   the canonical comparator.  A finished flow that does not beat the
   current k-th is rejected before its summary is built; keys are
   unique, so no flow ties the k-th. *)
let rec insert_worst_first s = function
  | y :: tl when Flows.compare_by_bytes s y < 0 -> y :: insert_worst_first s tl
  | l -> s :: l

let query ?(pred = no_predicate) ?top paths =
  Obs.Span.timed ~stage:"flowstore.query" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let matched = ref 0 in
  let distinct = ref 0 in
  let totals = { t_frames = 0.0; t_bytes = 0.0 } in
  let hist = Netcore.Histogram.Log2.create () in
  (* Every flow, newest first, or under [top] the best, worst first. *)
  let kept = ref [] in
  let n_kept = ref 0 in
  let a = new_acc () in
  let finalize () =
    if a.a_open then begin
      a.a_open <- false;
      let s = a.a_sums in
      incr distinct;
      totals.t_frames <- totals.t_frames +. s.a_frames;
      totals.t_bytes <- totals.t_bytes +. s.a_bytes;
      Netcore.Histogram.Log2.add hist (Float.max 1.0 s.a_bytes);
      match top with
      | None -> kept := summary a :: !kept
      | Some k when k < 0 || !n_kept < k ->
        kept := insert_worst_first (summary a) !kept;
        incr n_kept
      | Some _ -> (
        match !kept with
        | kth :: rest when compare_acc a kth < 0 ->
          kept := insert_worst_first (summary a) rest
        | _ -> ())
    end
  in
  let on_record (r : record) =
    if a.a_open && not (String.equal a.a_key r.r_key) then finalize ();
    if matches pred r then begin
      incr matched;
      absorb a r
    end
  in
  let scanned = Obs.Segment.scan schema paths on_record in
  finalize ();
  let wall = Unix.gettimeofday () -. t0 in
  if Obs.Registry.enabled () then begin
    Obs.Registry.incr obs_queries;
    Obs.Registry.inc obs_records_scanned (float_of_int scanned);
    if wall > 0.0 then
      Obs.Registry.observe obs_scan_rate (float_of_int scanned /. wall)
  end;
  let flows =
    match top with
    | None -> List.sort Flows.compare_by_bytes !kept
    | Some _ -> List.rev !kept
  in
  {
    flows;
    size_hist = hist;
    stats =
      {
        segments_scanned = List.length paths;
        records_scanned = scanned;
        records_matched = !matched;
        distinct_flows = !distinct;
        total_frames = totals.t_frames;
        total_bytes = totals.t_bytes;
        wall_s = wall;
      };
  }

(* Targeted lookup for the loss ledger's exemplar drill-down: one merge
   scan, accumulating only the wanted keys.  Same absorption as [query]
   (records arrive in (key, seq) order), so a found summary is
   byte-identical to the key's entry in a full query. *)
let lookup ~keys paths =
  Obs.Span.timed ~stage:"flowstore.lookup" @@ fun () ->
  let wanted = Hashtbl.create (List.length keys) in
  List.iter
    (fun k -> if not (Hashtbl.mem wanted k) then Hashtbl.add wanted k (new_acc ()))
    keys;
  let on_record (r : record) =
    match Hashtbl.find_opt wanted r.r_key with
    | Some a -> absorb a r
    | None -> ()
  in
  let scanned = Obs.Segment.scan schema paths on_record in
  if Obs.Registry.enabled () then begin
    Obs.Registry.incr obs_queries;
    Obs.Registry.inc obs_records_scanned (float_of_int scanned)
  end;
  List.map
    (fun k ->
      match Hashtbl.find_opt wanted k with
      | Some a when a.a_open -> (k, Some (summary a))
      | _ -> (k, None))
    keys
