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
  module F = Dissect.Acap.Fields

  type t = (string, shard) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let entry_of_key (table : t) key ~ts =
    match Hashtbl.find table key with
    | e -> e
    | exception Not_found ->
      let e = { s_frames = 0; s_bytes = 0; s_first = ts; s_last = ts; s_rst = false } in
      Hashtbl.add table key e;
      e

  let count entry ~ts ~orig_len ~rst =
    entry.s_frames <- entry.s_frames + 1;
    entry.s_bytes <- entry.s_bytes + orig_len;
    entry.s_first <- Float.min entry.s_first ts;
    entry.s_last <- Float.max entry.s_last ts;
    entry.s_rst <- entry.s_rst || rst

  let add (table : t) (r : Dissect.Acap.record) =
    match Dissect.Acap.flow_key r with
    | None -> ()
    | Some key ->
      count
        (entry_of_key table key ~ts:r.Dissect.Acap.ts)
        ~ts:r.Dissect.Acap.ts ~orig_len:r.Dissect.Acap.orig_len ~rst:r.Dissect.Acap.tcp_rst

  (* One fold's index from a frame's flow identity ([Fields.identity])
     to its flow's entry in the shard: open addressing with linear
     probing, the identities in [ids] ("" marks a free slot) and their
     entries beside them, kept at most half full.  A frame is found by
     hashing and comparing its identity where the fields hold it; only
     a new identity renders its key, and resolves through it, so
     identities finer than keys still share an entry. *)
  type index = {
    table : t;
    mutable ids : string array;
    mutable entries : shard array;
    mutable used : int;
  }

  let no_entry = { s_frames = 0; s_bytes = 0; s_first = 0.0; s_last = 0.0; s_rst = false }
  let index table = { table; ids = Array.make 64 ""; entries = Array.make 64 no_entry; used = 0 }

  (* FNV-1a over 16-bit words, its high bits folded into the low ones
     that pick a slot. *)
  let rec hash_from b len h i =
    if i + 1 < len then hash_from b len ((h lxor Bytes.get_uint16_le b i) * 0x100000001b3) (i + 2)
    else if i < len then (h lxor Bytes.get_uint8 b i) * 0x100000001b3
    else h

  let hash_id b len =
    let h = hash_from b len 0x811c9dc5 0 in
    h lxor (h lsr 32)

  let rec same_from s b len i =
    if i + 1 < len then
      String.get_uint16_le s i = Bytes.get_uint16_le b i && same_from s b len (i + 2)
    else i = len || String.get s i = Bytes.get b i

  (* The slot holding the identity, or the free slot it would go in. *)
  let rec slot ids b len mask i =
    let s = Array.unsafe_get ids i in
    if String.length s = 0 || (String.length s = len && same_from s b len 0) then i
    else slot ids b len mask ((i + 1) land mask)

  let place ix id entry =
    let b = Bytes.unsafe_of_string id and len = String.length id in
    let mask = Array.length ix.ids - 1 in
    let i = slot ix.ids b len mask (hash_id b len land mask) in
    ix.ids.(i) <- id;
    ix.entries.(i) <- entry

  let grow ix =
    let ids = ix.ids and entries = ix.entries in
    ix.ids <- Array.make (2 * Array.length ids) "";
    ix.entries <- Array.make (2 * Array.length ids) no_entry;
    Array.iteri (fun i id -> if String.length id > 0 then place ix id entries.(i)) ids

  let add_frame ix fields ~ts ~orig_len =
    let len = F.identity_length fields in
    if len > 0 then begin
      if 2 * (ix.used + 1) > Array.length ix.ids then grow ix;
      let b = F.identity fields and mask = Array.length ix.ids - 1 in
      let i = slot ix.ids b len mask (hash_id b len land mask) in
      let entry =
        if String.length ix.ids.(i) > 0 then ix.entries.(i)
        else begin
          let e = entry_of_key ix.table (Option.get (F.key fields)) ~ts in
          ix.ids.(i) <- Bytes.sub_string b 0 len;
          ix.entries.(i) <- e;
          ix.used <- ix.used + 1;
          e
        end
      in
      count entry ~ts ~orig_len ~rst:(F.tcp_rst fields)
    end

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
