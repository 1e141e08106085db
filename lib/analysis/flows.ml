type summary = {
  flow_key : string;
  frames : float;
  bytes : float;
  first_seen : float;
  last_seen : float;
  rst_seen : bool;
}

(* Per-group shard: plain integer sums, exact by construction.  The
   group's sampling weight is applied once at merge time, so a
   fraction of 1.0 stays on an exact-integer path end to end. *)
type shard = {
  mutable s_frames : int;
  mutable s_bytes : int;
  mutable s_first : float;
  mutable s_last : float;
  mutable s_rst : bool;
}

type acc = {
  mutable a_frames : float;
  mutable a_bytes : float;
  mutable a_first : float;
  mutable a_last : float;
  mutable a_rst : bool;
}

(* Canonical result ordering: bytes descending, flow key ascending.
   Every producer of summary lists (shard merges, the profile builder,
   the flow-store query engine) sorts with this one comparator, so
   byte-tied flows order identically everywhere regardless of hash-table
   iteration order. *)
let compare_by_bytes a b =
  match compare b.bytes a.bytes with
  | 0 -> compare a.flow_key b.flow_key
  | c -> c

module Shard = struct
  type t = (string, shard) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add_frame (table : t) ~key ~ts ~orig_len ~rst =
    let entry =
      match Hashtbl.find table key with
      | e -> e
      | exception Not_found ->
        let e =
          { s_frames = 0; s_bytes = 0; s_first = ts; s_last = ts; s_rst = false }
        in
        Hashtbl.add table key e;
        e
    in
    entry.s_frames <- entry.s_frames + 1;
    entry.s_bytes <- entry.s_bytes + orig_len;
    entry.s_first <- Float.min entry.s_first ts;
    entry.s_last <- Float.max entry.s_last ts;
    entry.s_rst <- entry.s_rst || rst

  let add (table : t) (r : Dissect.Acap.record) =
    match Dissect.Acap.flow_key r with
    | None -> ()
    | Some key ->
      add_frame table ~key ~ts:r.Dissect.Acap.ts ~orig_len:r.Dissect.Acap.orig_len
        ~rst:r.Dissect.Acap.tcp_rst

  let is_empty (table : t) = Hashtbl.length table = 0

  (* The one place a sample's weight meets its flow counts.  A thinned
     capture under-counts frames and bytes alike, so both integer sums
     are scaled, once each. *)
  let fold_weighted (table : t) ~weight ~init ~f =
    Hashtbl.fold
      (fun key (s : shard) acc ->
        f acc ~key
          ~frames:(float_of_int s.s_frames *. weight)
          ~bytes:(float_of_int s.s_bytes *. weight)
          ~first:s.s_first ~last:s.s_last ~rst:s.s_rst)
      table init
end

let weight_of_fraction fraction = if fraction > 0.0 then 1.0 /. fraction else 1.0

module Totals = struct
  type t = (string, acc) Hashtbl.t

  let create () : t = Hashtbl.create 1024

  (* Each flow of the shard is added once: its first sample sets the
     times, and the sums start from 0.0, as the flow-store query
     replays them. *)
  let add (table : t) shard ~weight =
    Shard.fold_weighted shard ~weight ~init:()
      ~f:(fun () ~key ~frames ~bytes ~first ~last ~rst ->
        let entry =
          match Hashtbl.find table key with
          | e -> e
          | exception Not_found ->
            let e =
              {
                a_frames = 0.0;
                a_bytes = 0.0;
                a_first = first;
                a_last = last;
                a_rst = false;
              }
            in
            Hashtbl.add table key e;
            e
        in
        entry.a_frames <- entry.a_frames +. frames;
        entry.a_bytes <- entry.a_bytes +. bytes;
        entry.a_first <- Float.min entry.a_first first;
        entry.a_last <- Float.max entry.a_last last;
        entry.a_rst <- entry.a_rst || rst)

  let summaries (table : t) =
    Hashtbl.fold
      (fun key e acc ->
        {
          flow_key = key;
          frames = e.a_frames;
          bytes = e.a_bytes;
          first_seen = e.a_first;
          last_seen = e.a_last;
          rst_seen = e.a_rst;
        }
        :: acc)
      table []
    |> List.sort compare_by_bytes
end

let shard_group (records, fraction) =
  let table = Shard.create () in
  List.iter (Shard.add table) records;
  (table, fraction)

(* Merge shard tables in list order.  Per-key sums are exact integers
   until weighting, min/max/or are order-independent, and the final sort
   breaks byte ties on the flow key, so the result depends only on the
   multiset of records per weight — never on how they were sharded.  A
   fraction <= 0 means the capture materialized nothing it could
   attribute a thinning rate to; weight 1.0 is the only safe default. *)
let merge shards =
  let totals = Totals.create () in
  List.iter
    (fun (shard, fraction) ->
      Totals.add totals shard ~weight:(weight_of_fraction fraction))
    shards;
  Totals.summaries totals

let aggregate ?weights records =
  let groups = Option.value weights ~default:[ (records, 1.0) ] in
  merge (List.map shard_group groups)

let size_log_histogram summaries =
  let h = Netcore.Histogram.Log2.create () in
  List.iter (fun s -> Netcore.Histogram.Log2.add h (Float.max 1.0 s.bytes)) summaries;
  h

(* The summaries are already sorted largest-first, so taking the top n
   must stop after n elements — the query engine calls this over merged
   result sets holding every flow of a year-long run. *)
let top_n summaries n =
  let rec take acc k = function
    | x :: tl when k < n -> take (x :: acc) (k + 1) tl
    | _ -> List.rev acc
  in
  take [] 0 summaries
