(* On-disk time-series store: sorted binary segments + k-way-merge query.

   The rolling [Series] windows are capacity-bounded RAM: a service
   restart erases all history and a long run evicts its own past.  The
   Tsdb makes telemetry durable as append-only sorted [Segment] files,
   the layer it shares with the flow store: one commit per segment,
   [Corrupt] on any validation failure, and bounded-memory reads by a
   k-way merge holding one block and one record per segment.  A record is
   the very (at, value) point pushed into a series. *)

type record = {
  t_name : string;
  t_labels : Registry.labels; (* canonically sorted *)
  t_at : float;
  t_value : float;
}

exception Corrupt = Segment.Corrupt

let raw_point ~name ?(labels = []) ~at value =
  { t_name = name; t_labels = List.sort compare labels; t_at = at; t_value = value }

let point_of_record r = (r.t_at, r.t_value)

(* Total order: series first, then time. *)
let compare_record a b =
  match compare a.t_name b.t_name with
  | 0 -> (
    match compare a.t_labels b.t_labels with
    | 0 -> compare a.t_at b.t_at
    | c -> c)
  | c -> c

(* --- observability ------------------------------------------------- *)

let obs_segments_written =
  Registry.counter Registry.default "tsdb_segments_written_total"
    ~help:"Time-series segment files written (one per flush)"

let obs_points_written =
  Registry.counter Registry.default "tsdb_records_written_total"
    ~help:"Time-series records written to segment files"

let obs_records_scanned =
  Registry.counter Registry.default "tsdb_records_scanned_total"
    ~help:"Time-series records read from segments by queries"

let obs_queries =
  Registry.counter Registry.default "tsdb_queries_total"
    ~help:"Range queries answered over stored segments"

let obs_removed =
  Registry.counter Registry.default "tsdb_segments_removed_total"
    ~help:"Temporaries of a killed write deleted at open"

(* --- segment schema ------------------------------------------------ *)

(* Record: u16 name_len, name, u8 n_labels, per label u16 klen, key,
   u16 vlen, value; u8 kind (0); f64 at, f64 value.  Everything
   little-endian; the header and its checks are [Segment]'s.

   Ties are legal: two sources may report the same series at the same
   instant, and the writer's stable sort keeps such duplicates
   adjacent. *)

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
  Buffer.add_uint8 buf 0;
  Buffer.add_int64_le buf (Int64.bits_of_float r.t_at);
  Buffer.add_int64_le buf (Int64.bits_of_float r.t_value)

(* Labels in canonical order: no adjacent pair decreases. *)
let rec sorted = function
  | a :: (b :: _ as rest) -> compare a b <= 0 && sorted rest
  | _ -> true

let decode c =
  let name = Segment.str c "series name" in
  let n_labels = Bytes.get_uint8 (Segment.field c 1 "label count") 0 in
  let labels =
    List.init n_labels (fun _ ->
        let k = Segment.str c "label key" in
        let v = Segment.str c "label value" in
        (k, v))
  in
  (match Bytes.get_uint8 (Segment.field c 1 "record kind") 0 with
  | 0 -> ()
  | k -> Segment.invalid c "invalid record kind 0x%02x" k);
  let fixed = Segment.field c 16 "raw point" in
  let at = Int64.float_of_bits (Bytes.get_int64_le fixed 0) in
  let value = Int64.float_of_bits (Bytes.get_int64_le fixed 8) in
  if not (sorted labels) then Segment.invalid c "labels not sorted";
  { t_name = name; t_labels = labels; t_at = at; t_value = value }

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
  && (match p.q_since with None -> true | Some t -> r.t_at >= t)
  && match p.q_until with None -> true | Some t -> r.t_at <= t

(* --- store handle -------------------------------------------------- *)

let segment_path dir index =
  Filename.concat dir (Printf.sprintf "tsdb-%06d.pwts" index)

let index_of_path path =
  (* Foreign names count as index -1. *)
  Option.value ~default:(-1)
    (Scanf.sscanf_opt (Filename.basename path) "tsdb-%d" Fun.id)

let segments_in_dir dir = Segment.in_dir schema dir

type t = {
  dir : string;
  lock : Mutex.t;
  mutable buf : record list; (* reversed arrival order; flush sorts *)
  mutable buffered : int;
  mutable seg_index : int;
}

(* Open (or create) a store directory, deleting the temporaries a
   killed write left. *)
let open_store ~dir () =
  Segment.mkdir_p dir;
  Registry.inc obs_removed
    (float_of_int (Segment.remove_uncommitted schema dir));
  let seg_index =
    List.fold_left
      (fun acc p -> max acc (index_of_path p + 1))
      0 (segments_in_dir dir)
  in
  { dir; lock = Mutex.create (); buf = []; buffered = 0; seg_index }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dir t = t.dir
let segments t = segments_in_dir t.dir

let append_point t ~name ?(labels = []) ~at value =
  let r = raw_point ~name ~labels ~at value in
  locked t @@ fun () ->
  t.buf <- r :: t.buf;
  t.buffered <- t.buffered + 1

(* Write the buffered records as one new segment.  Returns the number
   of records flushed. *)
let flush t =
  locked t @@ fun () ->
  if t.buffered = 0 then 0
  else begin
    Span.timed ~stage:"tsdb.flush" @@ fun () ->
    let path = segment_path t.dir t.seg_index in
    t.seg_index <- t.seg_index + 1;
    let count = t.buffered in
    ignore (Segment.write schema path t.buf);
    if Registry.enabled () then begin
      Registry.incr obs_segments_written;
      Registry.inc obs_points_written (float_of_int count)
    end;
    t.buf <- [];
    t.buffered <- 0;
    count
  end

(* --- range queries ------------------------------------------------- *)

(* Bounded-memory streaming fold over matching records in (series,
   time) order: the in-flight state is one block and one record per
   segment. *)
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

(* A flush adds a segment by rename and nothing deletes a committed
   one, so a store query needs no lock. *)
let query_store ?pred t = query ?pred (segments t)

(* The series [tail] is reading: its last records in a ring that grows
   by doubling up to [n], so a record costs the same at any [n]. *)
type tail_acc = { mutable ring : record array; mutable seen : int }

let tail_push ~n a r =
  let cap = Array.length a.ring in
  (* Not yet wrapped: the records fill [0, cap) in order. *)
  if a.seen = cap && cap < n then
    a.ring <- Array.append a.ring (Array.make (min cap (n - cap)) r);
  a.ring.(a.seen mod Array.length a.ring) <- r;
  a.seen <- a.seen + 1

(* The series and its kept points, oldest first. *)
let tail_points a =
  let cap = Array.length a.ring in
  let kept = min a.seen cap in
  let rec go k acc =
    if k < 0 then acc
    else go (k - 1) (point_of_record a.ring.((a.seen - kept + k) mod cap) :: acc)
  in
  (a.ring.(0).t_name, a.ring.(0).t_labels, go (kept - 1) [])

(* The last [n] points per series — the tail a restarted service
   re-arms its alerts from. *)
let tail ?(pred = no_predicate) ~n paths =
  if n < 1 then invalid_arg "Obs.Tsdb.tail: n must be >= 1";
  let current = ref None and finished = ref [] in
  let start r =
    let a = { ring = Array.make (min n 16) r; seen = 0 } in
    current := Some a;
    a
  in
  fold ~pred paths ~init:() ~f:(fun () r ->
      let a =
        match !current with
        | Some a
          when String.equal a.ring.(0).t_name r.t_name
               && a.ring.(0).t_labels = r.t_labels ->
          a
        | Some a ->
          finished := tail_points a :: !finished;
          start r
        | None -> start r
      in
      tail_push ~n a r);
  Option.iter (fun a -> finished := tail_points a :: !finished) !current;
  List.rev !finished

let tail_store ~n t = tail ~n (segments t)
