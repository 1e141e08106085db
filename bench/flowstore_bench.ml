(* Flow-store bench: spilled segments + query vs the in-memory merge.

   Builds a synthetic multi-group flow workload (mixed sampling
   fractions, including weights with no exact float representation, and
   deliberately byte-tied flows), aggregates it entirely in memory with
   Flows.merge, then writes it through the spill writer and queries the
   segments back.  Exits 1 if the query result is not byte-identical to
   the in-memory merge (same order, same weighted totals), if the top-k
   query diverges from Flows.top_n, or if the top-k query's heap
   footprint is not smaller than the in-memory merge's.

   Results (walls, peak heap words per phase, segment/spill counts) are
   recorded in BENCH_flowstore.json.

   Peak heap per phase: each phase starts from Gc.compact and a GC alarm
   samples heap_words at every major-cycle end; the phase peak is the
   max of those samples and a final sample.  On any hardware this is an
   upper-bound-ish proxy, good enough to show that a top-k scan stays
   far below the all-in-heap table. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with _ -> default)
  | None -> default

let n_flows = env_int "PATCHWORK_BENCH_FLOWS" 20_000
let n_groups = env_int "PATCHWORK_BENCH_GROUPS" 8

let fractions = [| 1.0; 0.5; 0.3; 0.25; 1.0; 0.125; 0.6; 1.0 |]

(* One synthetic dissected record; keys vary with the flow id, sizes
   repeat so many flows tie exactly on weighted bytes. *)
let acap_record ~flow ~ts ~len ~rst =
  Dissect.Acap.make ~ts ~orig_len:len ~cap_len:(min len 200)
    ~stack:[ "eth"; "vlan"; "ipv4"; (if flow mod 5 = 0 then "udp" else "tcp") ]
    ~vlan_ids:[ 100 + (flow mod 7) ] ~mpls_labels:[]
    ~src:(Some (Printf.sprintf "10.%d.%d.%d" (flow / 65536) (flow / 256 mod 256) (flow mod 256)))
    ~dst:(Some "10.200.0.1")
    ~l4:(Some (40000 + (flow mod 1000), 5201))
    ~tcp_rst:rst ~truncated:false

let build_groups () =
  let rng = Netcore.Rng.create 42 in
  List.init n_groups (fun g ->
      let records = ref [] in
      for flow = 0 to n_flows - 1 do
        (* Every flow appears in every other group on average. *)
        if flow mod 2 = g mod 2 || Netcore.Rng.bernoulli rng 0.3 then begin
          let n = 1 + Netcore.Rng.int rng 3 in
          for i = 0 to n - 1 do
            records :=
              acap_record ~flow
                ~ts:(float_of_int ((g * 1000) + i))
                ~len:(64 + (64 * (flow mod 4)))
                ~rst:(flow mod 97 = 0)
              :: !records
          done
        end
      done;
      (List.rev !records, fractions.(g mod Array.length fractions)))

(* --- per-phase instrumentation ------------------------------------- *)

let peak = ref 0

let sample_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !peak then peak := h

let phase f =
  Gc.compact ();
  let base = (Gc.quick_stat ()).Gc.heap_words in
  peak := base;
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let wall = Unix.gettimeofday () -. t0 in
  sample_heap ();
  (result, wall, base, !peak)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let () =
  let _alarm = Gc.create_alarm sample_heap in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "patchwork-flowstore-bench" in
  rm_rf dir;
  Printf.printf "flow-store bench: %d flows x %d groups\n%!" n_flows n_groups;

  let groups = build_groups () in
  let shards =
    List.map
      (fun (records, fraction) ->
        let shard = Analysis.Flows.Shard.create () in
        List.iter (Analysis.Flows.Shard.add shard) records;
        (shard, fraction))
      groups
  in
  let total_records =
    List.fold_left (fun acc (rs, _) -> acc + List.length rs) 0 groups
  in

  (* Phase 1: the all-in-heap merge (the baseline the store replaces). *)
  let expected, mem_wall, mem_base, mem_peak =
    phase (fun () -> Analysis.Flows.merge shards)
  in
  Printf.printf "in-memory merge: %d flows, %.3fs, peak heap %d words (+%d)\n%!"
    (List.length expected) mem_wall mem_peak (mem_peak - mem_base);

  (* Phase 2: spill the same groups through the writer.  The threshold
     forces several segments so the query below really k-way merges. *)
  let spill_records = max 1 ((total_records / 4) + 1) in
  let (segments, spill_bytes), write_wall, write_base, write_peak =
    phase (fun () ->
        let w =
          Analysis.Flow_store.Writer.create ~spill_records ~dir ()
        in
        List.iter
          (fun (shard, fraction) ->
            Analysis.Flow_store.Writer.add_shard w ~site:"BENCH" ~fraction shard)
          shards;
        let paths = Analysis.Flow_store.Writer.finish w in
        (paths, Analysis.Flow_store.Writer.spilled_bytes w))
  in
  Printf.printf "spill write: %d segments, %d bytes, %.3fs, peak heap %d words (+%d)\n%!"
    (List.length segments) spill_bytes write_wall write_peak
    (write_peak - write_base);

  (* Phase 3: bounded top-k query — must never hold the full table. *)
  let topk = 10 in
  let top_res, topk_wall, topk_base, topk_peak =
    phase (fun () -> Analysis.Flow_store.query ~top:topk segments)
  in
  Printf.printf "top-%d query: scanned %d records, %.3fs, peak heap %d words (+%d)\n%!"
    topk top_res.Analysis.Flow_store.stats.Analysis.Flow_store.records_scanned
    topk_wall topk_peak (topk_peak - topk_base);

  (* Phase 4: full query — the identity check against the merge. *)
  let full_res, full_wall, full_base, full_peak =
    phase (fun () -> Analysis.Flow_store.query segments)
  in
  Printf.printf "full query: %d flows, %.3fs, peak heap %d words (+%d)\n%!"
    (List.length full_res.Analysis.Flow_store.flows)
    full_wall full_peak (full_peak - full_base);

  let identical = full_res.Analysis.Flow_store.flows = expected in
  let topk_identical =
    top_res.Analysis.Flow_store.flows = Analysis.Flows.top_n expected topk
  in
  let topk_delta = topk_peak - topk_base
  and mem_delta = mem_peak - mem_base in
  let heap_bounded = topk_delta < mem_delta || mem_delta = 0 in
  Printf.printf "identical=%b topk_identical=%b heap_bounded=%b (+%d vs +%d words)\n%!"
    identical topk_identical heap_bounded topk_delta mem_delta;

  let oc = open_out "BENCH_flowstore.json" in
  Printf.fprintf oc
    {|{
  "flows": %d,
  "groups": %d,
  "records": %d,
  "segments": %d,
  "spill_bytes": %d,
  "spill_threshold_records": %d,
  "in_memory": { "wall_s": %.6f, "peak_heap_words": %d, "delta_heap_words": %d },
  "store_write": { "wall_s": %.6f, "peak_heap_words": %d, "delta_heap_words": %d },
  "query_topk": { "wall_s": %.6f, "peak_heap_words": %d, "delta_heap_words": %d },
  "query_full": { "wall_s": %.6f, "peak_heap_words": %d, "delta_heap_words": %d },
  "identical": %b,
  "topk_identical": %b,
  "heap_bounded": %b
}
|}
    n_flows n_groups total_records (List.length segments) spill_bytes
    spill_records mem_wall mem_peak (mem_peak - mem_base) write_wall write_peak
    (write_peak - write_base) topk_wall topk_peak topk_delta full_wall full_peak
    (full_peak - full_base) identical topk_identical heap_bounded;
  close_out oc;
  Printf.printf "wrote BENCH_flowstore.json\n%!";
  rm_rf dir;
  if not (identical && topk_identical && heap_bounded) then exit 1
