(* The on-disk flow store: segment schema, spill writer and the query
   engine's byte-identity contract against the in-memory merge. *)

module FS = Analysis.Flow_store
module Segment = Obs.Segment
module Flows = Analysis.Flows
module Profile = Analysis.Profile

let record ?(ts = 0.0) ?(len = 100) ?(stack = [ "eth"; "ipv4"; "tcp" ])
    ?(vlans = [ 1 ]) ?(src = Some "10.0.0.1") ?(dst = Some "10.0.0.2")
    ?(l4 = Some (1000, 2000)) ?(rst = false) () =
  Dissect.Acap.make ~ts ~orig_len:len ~cap_len:(min len 200) ~stack
    ~vlan_ids:vlans ~mpls_labels:[] ~src ~dst ~l4 ~tcp_rst:rst ~truncated:false

let shard_of records =
  let s = Flows.Shard.create () in
  List.iter (Flows.Shard.add s) records;
  s

let fsrec ?(site = "STAR") ?(seq = 0) ?(frames = 1.0) ?(bytes = 100.0)
    ?(first = 0.0) ?(last = 1.0) ?(rst = false) key =
  {
    FS.r_key = key;
    r_site = site;
    r_seq = seq;
    r_frames = frames;
    r_bytes = bytes;
    r_first = first;
    r_last = last;
    r_rst = rst;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "patchwork_fstore" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun x -> Sys.remove (Filename.concat dir x))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* --- segment format ------------------------------------------------ *)

let test_segment_roundtrip () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "seg.pwfs" in
  (* Deliberately unsorted input: write sorts by (key, seq). *)
  let records =
    [
      fsrec ~seq:2 ~frames:3.0 ~bytes:300.0 ~rst:true "b|key";
      fsrec ~seq:0 ~site:"WASH" "a|key";
      fsrec ~seq:1 ~frames:2.5 ~bytes:0.5 ~first:(-1.0) ~last:9.25 "a|key";
    ]
  in
  let size = Segment.write FS.schema path records in
  Alcotest.(check bool) "size matches file" true
    (size = String.length (read_file path));
  match Segment.read_all FS.schema path with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check int) "three back" 3 (List.length back);
    Alcotest.(check bool) "sorted by (key, seq), fields exact" true
      (back
      = [
          fsrec ~seq:0 ~site:"WASH" "a|key";
          fsrec ~seq:1 ~frames:2.5 ~bytes:0.5 ~first:(-1.0) ~last:9.25 "a|key";
          fsrec ~seq:2 ~frames:3.0 ~bytes:300.0 ~rst:true "b|key";
        ])

let check_error path sub =
  match Segment.read_all FS.schema path with
  | Ok _ -> Alcotest.fail ("expected Error mentioning " ^ sub)
  | Error e ->
    let present =
      let ls = String.lowercase_ascii e and lsub = String.lowercase_ascii sub in
      let n = String.length ls and m = String.length lsub in
      let rec at i = i + m <= n && (String.sub ls i m = lsub || at (i + 1)) in
      at 0
    in
    if not present then Alcotest.fail (Printf.sprintf "%S not in %S" sub e);
    (* Every corruption error names the offending file. *)
    Alcotest.(check bool) "names the file" true
      (String.length e >= String.length path
      && String.sub e 0 (String.length path) = path)

let test_segment_bad_magic () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "bad.pwfs" in
  write_file path "NOPE\x01\x00\x00\x00\x00\x00";
  check_error path "bad magic"

let test_segment_bad_version () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "vers.pwfs" in
  write_file path "PWFS\x63\x00\x00\x00\x00\x00";
  check_error path "version 99"

let test_segment_short_header () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "short.pwfs" in
  write_file path "PWF";
  check_error path "shorter than the header"

let test_segment_truncated () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "trunc.pwfs" in
  let _ = Segment.write FS.schema path [ fsrec ~seq:0 "a"; fsrec ~seq:1 "b" ] in
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 5));
  check_error path "cut short at record 2/2"

let test_segment_trailing_garbage () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "trail.pwfs" in
  let _ = Segment.write FS.schema path [ fsrec "a" ] in
  write_file path (read_file path ^ "junk");
  check_error path "trailing garbage"

(* Hand-rolled little-endian encoder, independent of the library's, so
   these tests pin the format itself, not just the implementation. *)
let encode_segment ?count records =
  let b = Buffer.create 256 in
  Buffer.add_string b "PWFS";
  Buffer.add_uint16_le b 1;
  Buffer.add_int32_le b
    (Int32.of_int (Option.value count ~default:(List.length records)));
  List.iter
    (fun (key, site, seq, frames, bytes, first, last, flags) ->
      Buffer.add_uint16_le b (String.length key);
      Buffer.add_string b key;
      Buffer.add_uint16_le b (String.length site);
      Buffer.add_string b site;
      Buffer.add_int32_le b (Int32.of_int seq);
      List.iter
        (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f))
        [ frames; bytes; first; last ];
      Buffer.add_uint8 b flags)
    records;
  Buffer.contents b

let test_segment_unsorted_rejected () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "unsorted.pwfs" in
  write_file path
    (encode_segment
       [
         ("b", "STAR", 0, 1.0, 10.0, 0.0, 1.0, 0);
         ("a", "STAR", 1, 1.0, 10.0, 0.0, 1.0, 0);
       ]);
  check_error path "not sorted at record 2"

(* Seqs are unique per group, so an equal (key, seq) pair is a duplicate
   record, not a tie. *)
let test_segment_equal_records_rejected () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "dup.pwfs" in
  let r = ("a", "STAR", 3, 1.0, 10.0, 0.0, 1.0, 0) in
  write_file path (encode_segment [ r; r ]);
  check_error path "not sorted at record 2"

(* A header still holding the marker an older writer streamed behind
   is refused, not read up to the file's end: a spill it never sealed
   must not yield part of a group. *)
let test_segment_unsealed_rejected () =
  with_temp_dir @@ fun dir ->
  (* The file name must not itself contain the word checked for. *)
  let path = Filename.concat dir "killed.pwfs" in
  write_file path
    (encode_segment ~count:(-1) [ ("a", "STAR", 0, 1.0, 10.0, 0.0, 1.0, 0) ]);
  check_error path "unsealed"

let test_segment_invalid_flags_rejected () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "flags.pwfs" in
  write_file path (encode_segment [ ("a", "STAR", 0, 1.0, 10.0, 0.0, 1.0, 0xF2) ]);
  check_error path "invalid flags byte 0xf2"

let test_segment_format_pinned () =
  with_temp_dir @@ fun dir ->
  (* Direction 1: the library reads what the independent encoder wrote. *)
  let path = Filename.concat dir "pinned.pwfs" in
  write_file path
    (encode_segment
       [
         ("1|-|10.0.0.1|10.0.0.2|tcp|80-443", "STAR", 7, 2.0, 128.0, 1.5, 2.5, 1);
       ]);
  (match Segment.read_all FS.schema path with
  | Error e -> Alcotest.fail e
  | Ok [ r ] ->
    Alcotest.(check string) "key" "1|-|10.0.0.1|10.0.0.2|tcp|80-443" r.FS.r_key;
    Alcotest.(check string) "site" "STAR" r.FS.r_site;
    Alcotest.(check int) "seq" 7 r.FS.r_seq;
    Alcotest.(check (float 0.0)) "frames" 2.0 r.FS.r_frames;
    Alcotest.(check (float 0.0)) "bytes" 128.0 r.FS.r_bytes;
    Alcotest.(check bool) "rst" true r.FS.r_rst
  | Ok l ->
    Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l)));
  (* Direction 2: the library writes byte-for-byte what the independent
     encoder predicts. *)
  let path2 = Filename.concat dir "written.pwfs" in
  let _ =
    Segment.write FS.schema path2
      [
        fsrec ~seq:4 ~site:"WASH" ~rst:true "b|key";
        fsrec ~seq:1 ~frames:0.5 ~bytes:64.0 ~first:(-2.0) ~last:3.25 "a|key";
      ]
  in
  let expected =
    encode_segment
      [
        ("a|key", "STAR", 1, 0.5, 64.0, -2.0, 3.25, 0);
        ("b|key", "WASH", 4, 1.0, 100.0, 0.0, 1.0, 1);
      ]
  in
  Alcotest.(check bool) "writer output byte-identical to spec" true
    (read_file path2 = expected)

(* --- writer + query: the byte-identity contract -------------------- *)

(* Synthetic groups with plenty of byte-tied flows (same len, different
   ports) and awkward fractions (0.3, 0.6 have no exact binary
   representation). *)
let make_groups ~seed ~flows ~groups =
  let rng = Netcore.Rng.create seed in
  List.init groups (fun g ->
      let fraction =
        [| 1.0; 0.5; 0.3; 0.25; 0.125; 0.6 |].(Netcore.Rng.int rng 6)
      in
      let records = ref [] in
      for flow = 0 to flows - 1 do
        if Netcore.Rng.bernoulli rng 0.7 then
          for i = 0 to Netcore.Rng.int rng 3 do
            records :=
              record
                ~ts:(float_of_int ((g * 100) + i))
                ~len:(64 * (1 + (flow mod 3)))
                ~l4:(Some (5000 + flow, 443))
                ~rst:(flow mod 11 = 0) ()
              :: !records
          done
      done;
      (shard_of !records, fraction))

let query_equals_memory ~seed ~flows ~groups ~spill_records =
  with_temp_dir @@ fun dir ->
  let shards = make_groups ~seed ~flows ~groups in
  let expected = Flows.merge shards in
  let w = FS.Writer.create ~spill_records ~dir () in
  List.iter
    (fun (shard, fraction) -> FS.Writer.add_shard w ~site:"STAR" ~fraction shard)
    shards;
  let segments = FS.Writer.finish w in
  let res = FS.query segments in
  (expected = res.FS.flows, List.length segments, expected, res)

let test_query_identical_to_memory () =
  List.iter
    (fun spill_records ->
      let identical, segs, expected, res =
        query_equals_memory ~seed:7 ~flows:40 ~groups:6 ~spill_records
      in
      Alcotest.(check bool)
        (Printf.sprintf "byte-identical at spill threshold %d" spill_records)
        true identical;
      Alcotest.(check int)
        (Printf.sprintf "distinct flows (threshold %d)" spill_records)
        (List.length expected) res.FS.stats.FS.distinct_flows;
      if spill_records = 1 then
        Alcotest.(check bool) "tiny threshold spills many segments" true (segs > 3))
    [ 1; 7; 1000 ]

let qcheck_spill_identity =
  QCheck.Test.make ~name:"spilled query byte-identical to in-memory merge"
    ~count:30
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed, t) ->
      let spill_records = [| 1; 7; 1000 |].(t) in
      let identical, _, _, _ =
        query_equals_memory ~seed:(seed + 1) ~flows:20 ~groups:4 ~spill_records
      in
      identical)

let test_writer_counters () =
  with_temp_dir @@ fun dir ->
  let w = FS.Writer.create ~spill_records:1 ~dir () in
  FS.Writer.add_shard w ~site:"STAR" ~fraction:1.0
    (shard_of [ record (); record ~l4:(Some (1, 2)) () ]);
  let segs = FS.Writer.finish w in
  Alcotest.(check int) "one spill" 1 (List.length segs);
  Alcotest.(check bool) "spilled bytes counted" true (FS.Writer.spilled_bytes w > 0);
  Alcotest.(check bool) "finish twice rejected" true
    (match FS.Writer.finish w with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check (list string)) "segments_in_dir finds them" segs
    (FS.segments_in_dir dir)

(* One run per directory: a second writer would restart at segment 0
   and group seq 0, overwriting part of the first run and replaying the
   rest under colliding seqs.  It is refused and the store stays as it
   was; a directory holding only a killed spill's temporary is unused,
   and the temporary goes. *)
let test_writer_refuses_used_dir () =
  with_temp_dir @@ fun dir ->
  let w = FS.Writer.create ~spill_records:7 ~dir () in
  List.iter
    (fun (shard, fraction) -> FS.Writer.add_shard w ~site:"STAR" ~fraction shard)
    (make_groups ~seed:11 ~flows:20 ~groups:4);
  let segments = FS.Writer.finish w in
  let bytes = List.map read_file segments in
  let answer = FS.query segments in
  (match FS.Writer.create ~dir () with
  | _ -> Alcotest.fail "a second run into a used directory was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the directory"
      ("Flow_store.Writer.create: " ^ dir ^ " already holds flow-store segments")
      msg);
  Alcotest.(check (list string)) "segments untouched" segments
    (FS.segments_in_dir dir);
  Alcotest.(check bool) "bytes untouched" true
    (List.map read_file segments = bytes);
  Alcotest.(check bool) "query unchanged" true
    ((FS.query (FS.segments_in_dir dir)).FS.flows = answer.FS.flows);
  with_temp_dir @@ fun fresh ->
  write_file (Filename.concat fresh "flows-000000.pwfs.tmp") "PWFS\x01\x00";
  let w = FS.Writer.create ~dir:fresh () in
  Alcotest.(check (list string)) "temporary deleted" []
    (Array.to_list (Sys.readdir fresh));
  Alcotest.(check (list string)) "nothing written" [] (FS.Writer.finish w)

let counter_value name =
  match
    Obs.Registry.value Obs.Registry.default
      ~labels:[ ("stage", "flow_store") ]
      name
  with
  | Some (Obs.Registry.Counter v) -> v
  | _ -> 0.0

let test_writer_unweighted_counter () =
  with_temp_dir @@ fun dir ->
  let before = counter_value "analysis_unweighted_samples_total" in
  let w = FS.Writer.create ~dir () in
  (* Empty shard at fraction 0: nothing to mis-weight, no count. *)
  FS.Writer.add_shard w ~site:"STAR" ~fraction:0.0 (Flows.Shard.create ());
  Alcotest.(check (float 0.0)) "empty shard not counted" before
    (counter_value "analysis_unweighted_samples_total");
  FS.Writer.add_shard w ~site:"STAR" ~fraction:0.0 (shard_of [ record () ]);
  Alcotest.(check (float 0.0)) "non-empty shard counted" (before +. 1.0)
    (counter_value "analysis_unweighted_samples_total");
  let segs = FS.Writer.finish w in
  (* The unweightable group was stored at weight 1.0, like the merge. *)
  let res = FS.query segs in
  Alcotest.(check (float 0.0)) "stored at weight 1.0" 1.0
    (List.hd res.FS.flows).Flows.frames

(* --- predicates ---------------------------------------------------- *)

let two_site_segments dir =
  let star =
    shard_of
      [
        record ~ts:10.0 ~len:100 ~l4:(Some (1, 2)) ();
        record ~ts:20.0 ~len:400 ~l4:(Some (3, 4)) ~stack:[ "eth"; "ipv4"; "udp" ] ();
      ]
  in
  let wash =
    shard_of
      [
        record ~ts:30.0 ~len:100 ~l4:(Some (1, 2)) ();
        record ~ts:40.0 ~len:800 ~l4:(Some (5, 6)) ();
      ]
  in
  let w = FS.Writer.create ~dir () in
  FS.Writer.add_shard w ~site:"STAR" ~fraction:0.5 star;
  FS.Writer.add_shard w ~site:"WASH" ~fraction:1.0 wash;
  (FS.Writer.finish w, star, wash)

let test_query_site_predicate () =
  with_temp_dir @@ fun dir ->
  let segments, star, _wash = two_site_segments dir in
  let res = FS.query ~pred:(FS.predicate ~site:"STAR" ()) segments in
  (* Filtering by site replays exactly that site's groups, so the result
     equals merging them alone. *)
  Alcotest.(check bool) "site filter == merge of that site's shards" true
    (res.FS.flows = Flows.merge [ (star, 0.5) ]);
  Alcotest.(check int) "records filtered, not skipped" 4
    res.FS.stats.FS.records_scanned;
  Alcotest.(check int) "matched only STAR" 2 res.FS.stats.FS.records_matched

let test_query_proto_predicate () =
  with_temp_dir @@ fun dir ->
  let segments, _, _ = two_site_segments dir in
  let full = FS.query segments in
  let udp = FS.query ~pred:(FS.predicate ~proto:"udp" ()) segments in
  (* All of a flow's records share its key, so a proto filter selects
     whole flows out of the full result. *)
  Alcotest.(check bool) "udp flows are the udp subset of the full query" true
    (udp.FS.flows
    = List.filter
        (fun s -> FS.proto_of_key s.Flows.flow_key = "udp")
        full.FS.flows);
  Alcotest.(check int) "one udp flow" 1 udp.FS.stats.FS.distinct_flows

(* The proto predicate compares the key's fifth field in place; over
   keys of one to eight fields, empty ones included, it must keep
   exactly the flows whose [proto_of_key] is the proto asked for. *)
let qcheck_proto_predicate =
  let fields = [ ""; "tcp"; "udp"; "other"; "tc"; "tcpx" ] in
  let key = QCheck.Gen.(map (String.concat "|") (list_size (int_range 1 8) (oneofl fields))) in
  let proto = QCheck.Gen.(oneofl ("tcp|udp" :: "|" :: fields)) in
  QCheck.Test.make ~name:"proto predicate equals proto_of_key" ~count:500
    QCheck.(
      make
        ~print:Print.(pair string (list string))
        Gen.(pair proto (list_size (int_range 1 6) key)))
    (fun (proto, keys) ->
      with_temp_dir @@ fun dir ->
      let keys = List.sort_uniq compare keys in
      let path = Filename.concat dir "keys.pwfs" in
      ignore (Segment.write FS.schema path (List.mapi (fun seq k -> fsrec ~seq k) keys));
      let kept = FS.query ~pred:(FS.predicate ~proto ()) [ path ] in
      List.sort compare (List.map (fun s -> s.Flows.flow_key) kept.FS.flows)
      = List.filter (fun k -> String.equal proto (FS.proto_of_key k)) keys)

let test_query_time_predicate () =
  with_temp_dir @@ fun dir ->
  let segments, _, _ = two_site_segments dir in
  let late = FS.query ~pred:(FS.predicate ~since:25.0 ()) segments in
  (* Only WASH's records (ts 30, 40) have r_last >= 25. *)
  Alcotest.(check int) "since filters early records" 2
    late.FS.stats.FS.records_matched;
  let early = FS.query ~pred:(FS.predicate ~until:15.0 ()) segments in
  Alcotest.(check int) "until filters late records" 1
    early.FS.stats.FS.records_matched;
  let none = FS.query ~pred:(FS.predicate ~since:100.0 ()) segments in
  Alcotest.(check int) "empty match" 0 none.FS.stats.FS.distinct_flows;
  Alcotest.(check (list (pair int int))) "empty histogram" []
    (Netcore.Histogram.Log2.buckets none.FS.size_hist)

let test_query_topk () =
  with_temp_dir @@ fun dir ->
  let shards = make_groups ~seed:3 ~flows:30 ~groups:4 in
  let w = FS.Writer.create ~spill_records:17 ~dir () in
  List.iter
    (fun (shard, fraction) -> FS.Writer.add_shard w ~site:"STAR" ~fraction shard)
    shards;
  let segments = FS.Writer.finish w in
  let full = FS.query segments in
  List.iter
    (fun k ->
      let res = FS.query ~top:k segments in
      Alcotest.(check bool)
        (Printf.sprintf "top-%d == top_n of full" k)
        true
        (res.FS.flows = Flows.top_n full.FS.flows k);
      (* Stats and histogram still cover every matched flow. *)
      Alcotest.(check int)
        (Printf.sprintf "top-%d distinct" k)
        full.FS.stats.FS.distinct_flows res.FS.stats.FS.distinct_flows;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "top-%d total bytes" k)
        full.FS.stats.FS.total_bytes res.FS.stats.FS.total_bytes)
    [ 1; 5; 1000 ]

(* --- profile ordering (satellite: deterministic ties) -------------- *)

let sample_of ?(site = "STAR") ?(fraction = 1.0) ?(start = 0.0) records =
  {
    Patchwork.Capture.sample_site = site;
    sample_port = 0;
    sample_start = start;
    sample_duration = 20.0;
    acaps = records;
    materialized_fraction = fraction;
    pcap = None;
    stats =
      {
        Patchwork.Capture.loss =
          {
            Patchwork.Capture.b_offered_frames =
              float_of_int (List.length records);
            b_offered_bytes = 0.0;
            b_switch_dropped = 0.0;
            b_host_dropped = 0.0;
            b_captured_frames = float_of_int (List.length records);
            b_host_keep = 1.0;
            b_stored_wire_bytes = 0.0;
            b_causes = [];
          };
        stored_bytes = 0.0;
        flow_estimate = 1.0;
        congestion_detected = false;
      };
  }

(* Byte-tied flows: identical sizes, distinct ports, shuffled arrival. *)
let tied_records ~seed ~flows =
  let rng = Netcore.Rng.create seed in
  let records =
    List.concat
      (List.init flows (fun flow ->
           [
             record ~ts:1.0 ~len:256 ~l4:(Some (6000 + flow, 80)) ();
             record ~ts:2.0 ~len:256 ~l4:(Some (6000 + flow, 80)) ();
           ]))
  in
  (* Fisher–Yates over the record list. *)
  let a = Array.of_list records in
  for i = Array.length a - 1 downto 1 do
    let j = Netcore.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* An occasion of one site that took the given samples. *)
let report_of samples =
  {
    Patchwork.Coordinator.occasion_start = 0.0;
    occasion_duration = 20.0;
    sites =
      [
        {
          Patchwork.Coordinator.report_site = "STAR";
          outcome = Patchwork.Coordinator.Site_success;
          instances_requested = 1;
          instances_acquired = 1;
          site_samples = samples;
          cycles = 1;
          storage_used = 0.0;
        };
      ];
    log = Patchwork.Logging.create ();
  }

let build_profile ?fraction ~pool_size records =
  Parallel.Pool.with_pool ~size:pool_size @@ fun pool ->
  let b = Profile.Builder.create () in
  Profile.Builder.add_report ~pool b (report_of [ sample_of ?fraction records ]);
  Profile.Builder.finish b

let test_profile_tie_order_deterministic () =
  let records = tied_records ~seed:5 ~flows:12 in
  let p = build_profile ~pool_size:1 records in
  let keys = List.map (fun s -> s.Flows.flow_key) p.Profile.flow_summaries in
  Alcotest.(check (list string)) "byte-tied flows sort by key" keys
    (List.sort compare keys);
  (* Occurrence ties (every token at 100%) break on the token. *)
  let tied_tokens =
    List.filter_map
      (fun (t, v) -> if v = 100.0 then Some t else None)
      p.Profile.occurrence
  in
  Alcotest.(check (list string)) "tied tokens sort by token" tied_tokens
    (List.sort compare tied_tokens)

let qcheck_profile_pool_independent =
  QCheck.Test.make
    ~name:"profile identical at pool sizes 1/2/4 under byte ties" ~count:10
    QCheck.small_nat
    (fun seed ->
      let records = tied_records ~seed ~flows:8 in
      let p1 = build_profile ~pool_size:1 records in
      let p2 = build_profile ~pool_size:2 records in
      let p4 = build_profile ~pool_size:4 records in
      Profile.equal p1 p2 && Profile.equal p1 p4)

let test_profile_flow_store_stream () =
  (* The builder's flow_store hook writes the same flows the profile
     reports, weighted the same way. *)
  with_temp_dir @@ fun dir ->
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:17 engine in
  let driver = Traffic.Driver.create fabric ~seed:17 in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 2;
      max_frames_per_sample = 500;
    }
  in
  let report =
    Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~max_instances:1
      ~start_time:0.0 ~duration:1900.0 ()
  in
  let b = Profile.Builder.create () in
  let w = FS.Writer.create ~spill_records:64 ~dir () in
  Profile.Builder.add_report ~flow_store:w b report;
  let profile = Profile.Builder.finish b in
  let segments = FS.Writer.finish w in
  Alcotest.(check bool) "segments written" true (segments <> []);
  let res = FS.query segments in
  (* The store's contract is byte-identity with Flows.merge over the
     same per-sample groups. *)
  let samples = Patchwork.Coordinator.all_samples report in
  let shards =
    List.map
      (fun (s : Patchwork.Capture.sample) ->
        (shard_of (Analysis.Digest.sample_acaps s),
         s.Patchwork.Capture.materialized_fraction))
      samples
  in
  Alcotest.(check bool) "stored flows == Flows.merge of the occasion" true
    (res.FS.flows = Flows.merge shards);
  Alcotest.(check bool) "stored flows == the profile's flows" true
    (res.FS.flows = profile.Profile.flow_summaries)

(* A weekly run as the service runs it: [weeks] occasions of half an
   hour each, streamed into a store that spills every 500 records.  The
   profile's flows and the store's query are one answer, bit for bit,
   however many spills cut the run. *)
let weekly_store_identity ~seed ~weeks ~emit_pcap =
  with_temp_dir @@ fun dir ->
  let b = Profile.Builder.create () in
  let w = FS.Writer.create ~spill_records:500 ~dir () in
  for week = 0 to weeks - 1 do
    let start_time = float_of_int (30 + (7 * week)) *. Netcore.Timebase.day in
    let engine = Simcore.Engine.create ~start_time () in
    let fabric = Testbed.Fablib.create ~seed engine in
    let driver = Traffic.Driver.create fabric ~seed:(seed + (31 * week)) in
    let config =
      {
        Patchwork.Config.default with
        Patchwork.Config.samples_per_run = 4;
        max_frames_per_sample = 500;
        emit_pcap;
      }
    in
    let report =
      Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~start_time
        ~duration:(0.5 *. Netcore.Timebase.hour) ()
    in
    Profile.Builder.add_report ~flow_store:w b report
  done;
  let profile = Profile.Builder.finish b in
  let segments = FS.Writer.finish w in
  let stored = (FS.query segments).FS.flows in
  let flows = profile.Profile.flow_summaries in
  let equal =
    if List.length stored <> List.length flows then 0
    else List.length (List.filter Fun.id (List.map2 ( = ) stored flows))
  in
  Printf.printf "seed %d, %d weeks%s: %d segments, %d of %d summaries equal\n"
    seed weeks
    (if emit_pcap then " (emit_pcap)" else "")
    (List.length segments) equal (List.length flows);
  Alcotest.(check bool) "several spills" true (List.length segments > 10);
  Alcotest.(check bool) "stored flows == the profile's flows" true (stored = flows)

let test_weekly_store_identity () =
  weekly_store_identity ~seed:1 ~weeks:4 ~emit_pcap:false;
  weekly_store_identity ~seed:2 ~weeks:4 ~emit_pcap:false;
  (* Pcap-carrying samples reach the profile through the digest. *)
  weekly_store_identity ~seed:1 ~weeks:2 ~emit_pcap:true

(* The profile folds a pcap-carrying sample frame by frame.  Handed
   the same samples carrying their pcaps' records instead, it counts
   the same profile, at any pool size.  The samples are the capture
   golden's [emit_pcap] occasion, every other one carrying instead the
   capture of a few random specs (RST segments, IPv6, VXLAN, reversed
   streams, runt and jumbo frames, snapped at 96, 200 or 1,500 bytes),
   which the driver's traffic lacks. *)
let test_profile_fold_identity () =
  let module C = Patchwork.Coordinator in
  let module Capture = Patchwork.Capture in
  let golden =
    Test_capture.golden_occasion (List.assoc "emit_pcap" Test_capture.golden_configs)
  in
  let random_pcap seed =
    let specs, config, fraction, start_time, end_time =
      Test_capture.case_setup (seed, 0, (false, true, false))
    in
    (Capture.materialize ~config ~rng:(Netcore.Rng.create seed) ~fraction ~start_time
       ~end_time specs)
      .Capture.pcap
  in
  let map_samples f (report : C.occasion_report) =
    {
      report with
      C.sites =
        List.map
          (fun (r : C.site_report) ->
            { r with C.site_samples = List.map f r.C.site_samples })
          report.C.sites;
    }
  in
  let i = ref 0 in
  let report =
    map_samples
      (fun (s : Capture.sample) ->
        incr i;
        if !i mod 2 = 0 then { s with Capture.pcap = random_pcap !i } else s)
      golden
  in
  let records =
    map_samples
      (fun (s : Capture.sample) ->
        match s.Capture.pcap with
        | None -> s
        | Some buf ->
          { s with Capture.pcap = None; acaps = Analysis.Digest.pcap_to_acaps buf })
      report
  in
  let digested =
    List.concat_map (fun (s : Capture.sample) -> s.Capture.acaps) (C.all_samples records)
  in
  Alcotest.(check bool) "every sample carries a pcap" true
    (List.for_all
       (fun (s : Capture.sample) -> s.Capture.pcap <> None)
       (C.all_samples report));
  Alcotest.(check bool) "some frames carry RST" true
    (List.exists (fun (r : Dissect.Acap.record) -> r.Dissect.Acap.tcp_rst) digested);
  let profile ~size report =
    Parallel.Pool.with_pool ~size (fun pool -> Profile.of_reports ~pool [ report ])
  in
  let reference = profile ~size:1 records in
  List.iter
    (fun size ->
      Alcotest.(check bool)
        (Printf.sprintf "folded ≡ records at pool %d" size)
        true
        (Profile.equal reference (profile ~size report)))
    [ 1; 2; 4 ]

(* A thinned sample weighs each record by 1/fraction.  Exact per-sample
   counts, each weighted once, cannot see the order the records came
   in; per-record float adds of varied lengths would. *)
let qcheck_profile_order_independent =
  QCheck.Test.make ~name:"thinned sample profiles equal to its shuffled records"
    ~count:100
    QCheck.(pair small_nat (float_range 0.01 0.99))
    (fun (seed, fraction) ->
      let rng = Netcore.Rng.create seed in
      let stacks =
        [|
          [ "eth"; "vlan"; "ipv4"; "tcp" ];
          [ "eth"; "vlan"; "mpls"; "ipv6"; "udp"; "dns" ];
          [ "eth"; "vlan"; "ipv4"; "udp"; "vxlan"; "eth"; "ipv4"; "tcp"; "tls" ];
        |]
      in
      let records =
        List.init (50 + Netcore.Rng.int rng 400) (fun _ ->
            let flow = Netcore.Rng.int rng 12 in
            record
              ~ts:(Netcore.Rng.float rng *. 20.0)
              ~len:(60 + Netcore.Rng.int rng 9000)
              ~stack:stacks.(flow mod 3)
              ~l4:(Some (7000 + flow, 443))
              ~rst:(Netcore.Rng.bernoulli rng 0.05)
              ())
      in
      let shuffled = Array.of_list records in
      Netcore.Rng.shuffle rng shuffled;
      Profile.equal
        (build_profile ~fraction ~pool_size:1 records)
        (build_profile ~fraction ~pool_size:1 (Array.to_list shuffled)))

let suites =
  [
    ( "analysis.flow_store.segment",
      [
        Alcotest.test_case "roundtrip" `Quick test_segment_roundtrip;
        Alcotest.test_case "bad magic" `Quick test_segment_bad_magic;
        Alcotest.test_case "bad version" `Quick test_segment_bad_version;
        Alcotest.test_case "short header" `Quick test_segment_short_header;
        Alcotest.test_case "truncated" `Quick test_segment_truncated;
        Alcotest.test_case "trailing garbage" `Quick test_segment_trailing_garbage;
        Alcotest.test_case "unsorted rejected" `Quick test_segment_unsorted_rejected;
        Alcotest.test_case "equal records rejected" `Quick
          test_segment_equal_records_rejected;
        Alcotest.test_case "unsealed rejected" `Quick test_segment_unsealed_rejected;
        Alcotest.test_case "invalid flags rejected" `Quick
          test_segment_invalid_flags_rejected;
        Alcotest.test_case "wire format pinned" `Quick test_segment_format_pinned;
      ] );
    ( "analysis.flow_store.query",
      [
        Alcotest.test_case "byte-identical to memory" `Quick
          test_query_identical_to_memory;
        Alcotest.test_case "writer counters" `Quick test_writer_counters;
        Alcotest.test_case "second run into a used directory refused" `Quick
          test_writer_refuses_used_dir;
        Alcotest.test_case "unweighted counter" `Quick
          test_writer_unweighted_counter;
        Alcotest.test_case "site predicate" `Quick test_query_site_predicate;
        Alcotest.test_case "proto predicate" `Quick test_query_proto_predicate;
        QCheck_alcotest.to_alcotest qcheck_proto_predicate;
        Alcotest.test_case "time predicate" `Quick test_query_time_predicate;
        Alcotest.test_case "top-k" `Quick test_query_topk;
        QCheck_alcotest.to_alcotest qcheck_spill_identity;
      ] );
    ( "analysis.flow_store.profile",
      [
        Alcotest.test_case "tie order deterministic" `Quick
          test_profile_tie_order_deterministic;
        Alcotest.test_case "flow store streaming" `Quick
          test_profile_flow_store_stream;
        Alcotest.test_case "flow store identity over many spills" `Quick
          test_weekly_store_identity;
        Alcotest.test_case "folded pcap samples ≡ their records (pools 1/2/4)" `Quick
          test_profile_fold_identity;
        QCheck_alcotest.to_alcotest qcheck_profile_order_independent;
        QCheck_alcotest.to_alcotest qcheck_profile_pool_independent;
      ] );
  ]
