(* Cost gates on the instrumented layers, counted in words instead of
   wall time.  Each gate runs on one domain, after one warm-up call, at
   a fixed seed, and reads a count the GC keeps exactly: minor words
   allocated ([Gc.minor_words] reads the allocation pointer, so it is
   exact between collections), or words promoted out of a minor heap
   emptied just before.  So within one build a gate reads the same on
   every run and on any host, whatever ran before it in the process,
   where a wall-clock ratio on a shared one- or two-core machine does
   not.  Across builds a reading moves whenever the measured calls
   allocate differently: with no change to the flow store, the
   flow-store gate read 1,232 / 135,521 promoted words (query / merge)
   before the span record lost its child-reservoir fields, and 1,266 /
   135,518 after.

   - decode: the metrics registry costs at most 0.25 minor words per
     decoded frame (counters are batched per capture, never per frame);
   - collect: one series collect allocates at most 150 minor words per
     registry cell;
   - tsdb: persisting one occasion's collected points (append, then one
     flush) allocates at most 100 minor words per point;
   - ledger: the loss ledger adds at most 573 minor words to an
     occasion per sample it records;
   - instrumentation: the metrics registry and the spans, which one
     switch turns off, add under 1% to an occasion's minor words;
   - flow store: a top-k query promotes under a twentieth of the words
     the in-memory merge of the same groups promotes, because it never
     holds the whole flow table;
   - store scan: a top-10 flow query allocates at most 40 minor words
     per record it scans, a proto query 42 and a tsdb tail of 2 points
     a series 48, and a tail of 50 at most 1.25 times that, because the
     reader decodes from a block, the sums are flat floats, the proto
     test splits nothing, a rejected flow builds no summary and the
     tail keeps each series' points in one ring of unboxed floats; the
     flow store is spilled into at least three segments;
   - span roots: once a tracer's root history is full, a finished root
     allocates at most twice the words it did below the cap, because
     the oldest root is dropped in constant time;
   - pcap record: at snap length 200, writing the record of a frame
     with a 1,900 B or an 8,900 B payload allocates at most 16 words
     more than writing one with a 46 B payload, because a frame is
     encoded only up to the snap length;
   - profile absorb: [add_report] allocates at most 8 minor words per
     record, because a sample is counted into exact integer cells and
     each cell is weighted once, not each record;
   - capture: [Capture.materialize] allocates at most 45 minor words
     per record, because the specs' time-ordered runs are merged, not
     sorted;
   - capture with pcap: with [emit_pcap] it allocates at most 60 minor
     words per record, and at most 1.1 times the pcap's words straight
     in the major heap, because each record is stamped from its flow
     class's template into one buffer reserved at the pcap's size;
   - digest fold: [add_report] over pcap-carrying samples allocates at
     most 12 minor words per record, because the records are walked
     without an index, each frame is read in place onto one reused
     tape and counted from it, and its flow is found by its identity
     bytes, so a key is rendered once per flow and sample, not per
     frame;
   - rng: a [Rng.int] draw allocates nothing and a [Dist.sample_int]
     draw on an [Empirical] at most 2 words (its boxed uniform);
   - telemetry: a poll allocates at most 16 minor words per switch port
     and a [port_avg_rate] read at most 16, because each switch keeps
     its SNMP series as per-port float columns, not one string-keyed
     series per (site, port, metric). *)

module Rng = Netcore.Rng
module T = Obs.Tsdb

(* Minor words [f] allocates on this domain. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

(* Words promoted out of the minor heap while [f] runs, counting its
   result, which is still live at the final minor collection; the minor
   heap starts empty. *)
let promoted_words f =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let r = f () in
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.promoted_words -. before in
  ignore (Sys.opaque_identity r);
  words

let with_temp_dir f =
  let dir = Filename.temp_dir "patchwork_gates" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let check_at_most what ~bound v =
  Printf.printf "%s: %.4g (bound %g)\n%!" what v bound;
  if not (v <= bound) then Alcotest.failf "%s: %.4g exceeds %g" what v bound

(* --- decode: registry overhead per frame --------------------------- *)

(* MTU-sized data frames over 256 flow templates, as the offline
   pipeline sees bulk transfers. *)
let decode_capture ~frames =
  let rng = Rng.create 42 in
  let services = [| "tls"; "iperf3"; "dns"; "ssh"; "mysql"; "nfs" |] in
  let template _ =
    let service = Option.get (Dissect.Services.by_name (Rng.choice rng services)) in
    let stack =
      Traffic.Stack_builder.forward rng
        {
          Traffic.Stack_builder.vlan_id = 100 + Rng.int rng 3900;
          mpls_labels = [ 16 + Rng.int rng 100_000 ];
          use_pseudowire = Rng.bernoulli rng 0.3;
          use_vxlan = Rng.bernoulli rng 0.05;
          use_ipv6 = Rng.bernoulli rng 0.02;
          service;
        }
    in
    Packet.Frame.make stack ~payload_len:(1400 + Rng.int rng 401)
  in
  let templates = Array.init 256 template in
  let w = Packet.Pcap.Writer.create () in
  for i = 0 to frames - 1 do
    Oracle.add_frame w ~ts:(float_of_int i *. 1e-5)
      (Rng.choice rng templates)
  done;
  Packet.Pcap.Writer.contents w

let test_decode_registry_overhead () =
  let frames = 4000 in
  let buf = decode_capture ~frames in
  let words enabled =
    Obs.Registry.set_enabled enabled;
    Fun.protect
      ~finally:(fun () -> Obs.Registry.set_enabled true)
      (fun () -> minor_words (fun () -> Analysis.Digest.pcap_to_acaps buf))
  in
  ignore (words true);
  let off = words false in
  let on = words true in
  Printf.printf "decode: %.0f minor words on, %.0f off, %d frames\n" on off frames;
  check_at_most "decode: registry minor words per frame" ~bound:0.25
    ((on -. off) /. float_of_int frames)

(* --- series collect: words per registry cell ----------------------- *)

(* A registry shaped like a federation-wide run: the ledger counters
   the collector reads per site (offered and stored frames and bytes,
   and one attributed cause's frames and bytes), per-domain pool
   counters, the queue-wait histogram and the occasion counter.  Every
   ledger cell moves between collects, as after an occasion, so each
   collect derives every per-site series. *)
let ledger_cells reg ~sites =
  List.concat_map
    (fun i ->
      let site = ("site", Printf.sprintf "SITE%02d" i) in
      let cause = [ site; ("cause", "host_drop_kernel") ] in
      List.map
        (fun (name, labels) -> Obs.Registry.counter reg name ~labels)
        [
          ("ledger_offered_frames_total", [ site ]);
          ("ledger_offered_bytes_total", [ site ]);
          ("ledger_stored_frames_total", [ site ]);
          ("ledger_stored_bytes_total", [ site ]);
          ("ledger_attributed_frames_total", cause);
          ("ledger_attributed_bytes_total", cause);
        ])
    (List.init sites Fun.id)

let collect_registry ~sites =
  let reg = Obs.Registry.create () in
  let ledger = ledger_cells reg ~sites in
  for d = 0 to 3 do
    Obs.Registry.inc
      (Obs.Registry.counter reg "pool_domain_busy_seconds_total"
         ~labels:[ ("domain", string_of_int d) ])
      10.0
  done;
  let qw = Obs.Registry.histogram reg "pool_queue_wait_seconds" in
  for i = 1 to 1000 do
    Obs.Registry.observe qw (float_of_int i *. 1e-4)
  done;
  ignore (Obs.Registry.counter reg "occasions_total");
  (reg, ledger)

let test_collect_words_per_cell () =
  let reg, ledger = collect_registry ~sites:30 in
  let cells = List.length (Obs.Registry.snapshot reg) in
  let col = Obs.Series.Collector.create () in
  let occasions = Obs.Registry.counter reg "occasions_total" in
  (* A fake wall clock that advances one second per read, so the pool
     busy fraction is derived on every collect. *)
  let wall = ref 0.0 in
  Obs.Clock.set_source (fun () -> wall := !wall +. 1.0; !wall);
  Fun.protect ~finally:Obs.Clock.reset_source @@ fun () ->
  let collect i =
    Obs.Registry.incr occasions;
    List.iter (fun c -> Obs.Registry.inc c 1e6) ledger;
    minor_words (fun () ->
        Obs.Series.Collector.collect col ~at:(float_of_int i *. 600.0) reg)
  in
  (* The first collect records the baseline; the second is the warm-up. *)
  ignore (collect 0);
  ignore (collect 1);
  check_at_most
    (Printf.sprintf "collect: minor words per cell (%d cells)" cells)
    ~bound:150.0
    (collect 2 /. float_of_int cells)

(* --- the occasion the tsdb and ledger gates run -------------------- *)

let occasion () =
  Parallel.Pool.with_pool ~size:1 @@ fun pool ->
  let start_time = 30.0 *. Netcore.Timebase.day in
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed:2024 engine in
  let driver = Traffic.Driver.create ~pool fabric ~seed:2024 in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 4;
      max_frames_per_sample = 2000;
      pool_size = 1;
    }
  in
  Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~pool ~start_time
    ~duration:(0.25 *. Netcore.Timebase.hour) ()

(* --- tsdb: words per persisted point ------------------------------- *)

let test_tsdb_words_per_point () =
  let col = Obs.Series.Collector.create () in
  ignore (Obs.Series.Collector.collect_points col ~at:0.0 Obs.Registry.default);
  let report = occasion () in
  let at =
    report.Patchwork.Coordinator.occasion_start
    +. report.Patchwork.Coordinator.occasion_duration
  in
  let points = Obs.Series.Collector.collect_points col ~at Obs.Registry.default in
  let persist () =
    with_temp_dir @@ fun dir ->
    let store = T.open_store ~dir () in
    minor_words (fun () ->
        List.iter
          (fun (name, labels, p) ->
            T.append_point store ~name ~labels ~at:p.Obs.Series.at
              p.Obs.Series.value)
          points;
        T.flush store)
  in
  ignore (persist ());
  check_at_most
    (Printf.sprintf "tsdb: minor words per point (%d points)" (List.length points))
    ~bound:100.0
    (persist () /. float_of_int (List.length points))

(* --- ledger and instrumentation: words they add to an occasion ------- *)

(* The minor words of the occasion with a layer's switch on and off, and
   the occasion's sample count.  The ledger is reset before each run. *)
let occasion_words set_enabled =
  let words enabled =
    set_enabled enabled;
    Obs.Ledger.reset Obs.Ledger.default;
    Fun.protect ~finally:(fun () -> set_enabled true) @@ fun () ->
    let before = Gc.minor_words () in
    let report = occasion () in
    let words = Gc.minor_words () -. before in
    (words, List.length (Patchwork.Coordinator.all_samples report))
  in
  ignore (words true);
  let off, _ = words false in
  let on, samples = words true in
  (on, off, samples)

(* The ledger's words are a fixed cost per sample it records, so they
   are bounded per sample, not as a share of an occasion that gets
   cheaper as other layers do. *)
let test_ledger_words_per_sample () =
  let on, off, samples = occasion_words Obs.Ledger.set_enabled in
  Printf.printf "ledger: %.0f minor words on, %.0f off, %d samples\n" on off samples;
  check_at_most "ledger: minor words per recorded sample" ~bound:573.0
    ((on -. off) /. float_of_int samples)

(* [Obs.Registry.set_enabled] covers the registry's cells and the
   spans, so the difference is everything Patchwork spends measuring
   itself. *)
let test_instrumentation_share () =
  let on, off, _ = occasion_words Obs.Registry.set_enabled in
  Printf.printf "instrumentation: %.0f minor words on, %.0f off\n" on off;
  check_at_most "instrumentation: % of the registry-off occasion's minor words"
    ~bound:1.0
    (100.0 *. (on -. off) /. off)

(* --- flow store: top-k scan vs in-memory merge --------------------- *)

(* [flows] synthetic flows over [groups] sample groups with mixed
   sampling fractions; sizes repeat, so many flows tie on bytes. *)
let flow_groups ~flows ~groups =
  let fractions = [| 1.0; 0.5; 0.3; 0.25; 1.0; 0.125 |] in
  let rng = Rng.create 42 in
  List.init groups (fun g ->
        let shard = Analysis.Flows.Shard.create () in
        for flow = 0 to flows - 1 do
          if flow mod 2 = g mod 2 || Rng.bernoulli rng 0.3 then
            for i = 0 to Rng.int rng 3 do
              let len = 64 + (64 * (flow mod 4)) in
              Analysis.Flows.Shard.add shard
                (Dissect.Acap.make
                   ~ts:(float_of_int ((g * 1000) + i))
                   ~orig_len:len ~cap_len:(min len 200)
                   ~stack:
                     [ "eth"; "vlan"; "ipv4"; (if flow mod 5 = 0 then "udp" else "tcp") ]
                   ~vlan_ids:[ 100 + (flow mod 7) ]
                   ~mpls_labels:[]
                   ~src:
                     (Some
                        (Printf.sprintf "10.%d.%d.%d" (flow / 65536)
                           (flow / 256 mod 256) (flow mod 256)))
                   ~dst:(Some "10.200.0.1")
                   ~l4:(Some (40000 + (flow mod 1000), 5201))
                   ~tcp_rst:(flow mod 97 = 0) ~truncated:false)
            done
        done;
        (shard, fractions.(g mod Array.length fractions)))

(* The store both flow-store gates read: the groups, spilled at a
   quarter of the records the store keeps, one per (flow, group), so
   that a query merges at least three segments. *)
let with_gate_store f =
  let shards = flow_groups ~flows:5000 ~groups:6 in
  let stored =
    List.fold_left
      (fun n (shard, _) ->
        Analysis.Flows.Shard.fold_weighted shard ~weight:1.0 ~init:n
          ~f:(fun n ~key:_ ~frames:_ ~bytes:_ ~first:_ ~last:_ ~rst:_ -> n + 1))
      0 shards
  in
  with_temp_dir @@ fun dir ->
  let w =
    Analysis.Flow_store.Writer.create ~spill_records:((stored / 4) + 1) ~dir ()
  in
  List.iter
    (fun (shard, fraction) ->
      Analysis.Flow_store.Writer.add_shard w ~site:"GATE" ~fraction shard)
    shards;
  let segments = Analysis.Flow_store.Writer.finish w in
  Printf.printf "gate store: %d records in %d segments\n" stored (List.length segments);
  if List.length segments < 3 then
    Alcotest.failf "gate store: %d segments, fewer than 3" (List.length segments);
  f shards segments

let test_flowstore_topk_promoted () =
  with_gate_store @@ fun shards segments ->
  let merge () = Analysis.Flows.merge shards in
  let top () = Analysis.Flow_store.query ~top:10 segments in
  ignore (merge ());
  ignore (top ());
  let merged = promoted_words merge in
  let scanned = promoted_words top in
  Printf.printf "flow store: %d segments; promoted words: top-10 query %.0f, merge %.0f\n"
    (List.length segments) scanned merged;
  check_at_most "flow store: top-10 query's share of the merge's promoted words"
    ~bound:0.05 (scanned /. merged)

(* --- store scans: words per scanned record ------------------------- *)

(* The minor words [query] allocates per record it reads, after a
   warm-up call. *)
let words_per_record ~records query =
  ignore (query ());
  minor_words query /. float_of_int records

(* 30 series with two labels each, 200 points a series, flushed as four
   segments of 50 points a series. *)
let with_gate_tsdb f =
  with_temp_dir @@ fun dir ->
  let store = T.open_store ~dir () in
  for seg = 0 to 3 do
    for series = 0 to 29 do
      let name = Printf.sprintf "gate_series_%d" (series mod 3) in
      let labels =
        [ ("port", string_of_int series); ("site", Printf.sprintf "SITE%02d" (series mod 7)) ]
      in
      for i = 0 to 49 do
        let at = float_of_int ((seg * 50) + i) *. 60.0 in
        T.append_point store ~name ~labels ~at (float_of_int (series * i))
      done
    done;
    ignore (T.flush store)
  done;
  f (T.segments store)

let test_store_scan_words () =
  let module FS = Analysis.Flow_store in
  let records, top, udp =
    with_gate_store @@ fun _ segments ->
    let records = (FS.query segments).FS.stats.FS.records_scanned in
    let per_record ?pred ?top () =
      words_per_record ~records (fun () -> FS.query ?pred ?top segments)
    in
    (records, per_record ~top:10 (), per_record ~pred:(FS.predicate ~proto:"udp" ()) ())
  in
  let tail2, tail50 =
    with_gate_tsdb @@ fun segments ->
    let tail n = words_per_record ~records:6000 (fun () -> T.tail ~n segments) in
    (tail 2, tail 50)
  in
  Printf.printf "store scan: %d flow records, 6000 tsdb records\n" records;
  check_at_most "store scan: top-10 query minor words per record" ~bound:40.0 top;
  check_at_most "store scan: udp query minor words per record" ~bound:42.0 udp;
  check_at_most "store scan: tsdb tail (n = 2) minor words per record" ~bound:48.0 tail2;
  check_at_most "store scan: tsdb tail words per record at n = 50 over n = 2"
    ~bound:1.25 (tail50 /. tail2)

(* --- span roots: words per finished root ---------------------------- *)

(* A fresh default tracer (a history of 1,024 roots) finishes 3,072
   roots.  The first 1,000 fill the history; each of the last 1,024
   also drops the oldest root. *)
let test_span_root_history () =
  let t = Obs.Span.create () in
  let names = Array.init 3072 string_of_int in
  let finish_roots ~lo ~hi =
    let before = Gc.minor_words () in
    for i = lo to hi - 1 do
      Obs.Span.finish t (Obs.Span.start t names.(i))
    done;
    Gc.minor_words () -. before
  in
  let below = finish_roots ~lo:0 ~hi:1000 /. 1000.0 in
  ignore (finish_roots ~lo:1000 ~hi:2048);
  let past = finish_roots ~lo:2048 ~hi:3072 /. 1024.0 in
  Printf.printf "span roots: %.1f minor words per root below the cap, %.1f past it\n"
    below past;
  Alcotest.(check int) "dropped roots" 2048 (Obs.Span.dropped_roots t);
  Alcotest.(check (list string)) "the newest 1,024 roots, oldest first"
    (Array.to_list (Array.sub names 2048 1024))
    (List.map Obs.Span.name (Obs.Span.roots t));
  check_at_most "span roots: words per root past the cap / below it" ~bound:2.0
    (past /. below)

(* --- pcap record: words per written record ----------------------- *)

(* The words [f] allocates on this domain, as minor words and words
   allocated straight in the major heap, where objects over 256 words go
   (a 2 KB frame's bytes do).  [Gc.counters]' major words also count
   what minor collections promote, so promoted words are taken out; its
   minor count is not used, [Gc.minor_words] is the exact one. *)
let heap_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0, major1 -. major0 -. (promoted1 -. promoted0))

let allocated_words f =
  let minor, major = heap_words f in
  minor +. major

(* The median words of one pcap record of a frame with [payload_len]
   payload bytes, as every capture writes it: stamped from the flow
   class's prebuilt template ([Flow_model.stamp_draw]), each draw
   advancing the index.  Over 64 records written to one writer after a
   warm-up record, so the median excludes the few records at which the
   writer's buffer grows. *)
let record_words ~snaplen payload_len =
  let mac = Netcore.Mac.of_int64 0x020000000001L in
  let ip = Netcore.Ipv4_addr.of_string "10.0.0.1" in
  let frame =
    Packet.Frame.make
      [
        Packet.Headers.Ethernet { src = mac; dst = mac };
        Packet.Headers.Vlan { pcp = 0; dei = false; vid = 100 };
        Packet.Headers.Ipv4
          { src = ip; dst = ip; dscp = 0; ttl = 64; ident = 1; dont_fragment = true };
        Packet.Headers.Tcp
          {
            src_port = 40000; dst_port = 5201; seq = 7l; ack_seq = 9l;
            flags = Packet.Headers.flags_psh_ack; window = 1024;
          };
      ]
      ~payload_len
  in
  let template = Packet.Codec.template frame
  and wire_len = Packet.Frame.wire_length frame in
  let w = Packet.Pcap.Writer.create ~snaplen () in
  Traffic.Flow_model.stamp_draw w ~ts:0.0 template ~index:0 ~wire_len;
  let words =
    Array.init 64 (fun i ->
        let ts = float_of_int (i + 1) and index = i + 1 in
        allocated_words (fun () ->
            Traffic.Flow_model.stamp_draw w ~ts template ~index ~wire_len))
  in
  Array.sort compare words;
  words.(32)

let test_pcap_record_words () =
  let small = record_words ~snaplen:200 46 in
  let mtu = record_words ~snaplen:200 1900 in
  let jumbo = record_words ~snaplen:200 8900 in
  Printf.printf
    "pcap record at snaplen 200: %.0f words for a 46 B payload, %.0f for 1,900 B, %.0f for 8,900 B\n"
    small mtu jumbo;
  check_at_most "pcap record: words for a 1,900 B payload over a 46 B one"
    ~bound:16.0 (mtu -. small);
  check_at_most "pcap record: words for an 8,900 B payload over a 46 B one"
    ~bound:16.0 (jumbo -. small)

(* --- profile absorb: words per record ------------------------------ *)

(* The default occasion of the capture golden. *)
let test_profile_absorb_words () =
  let report =
    Test_capture.golden_occasion (List.assoc "default" Test_capture.golden_configs)
  in
  let records =
    List.fold_left
      (fun n (s : Patchwork.Capture.sample) -> n + List.length s.Patchwork.Capture.acaps)
      0
      (Patchwork.Coordinator.all_samples report)
  in
  let b = Analysis.Profile.Builder.create () in
  Analysis.Profile.Builder.add_report b report;
  let words = minor_words (fun () -> Analysis.Profile.Builder.add_report b report) in
  check_at_most
    (Printf.sprintf "profile: add_report minor words per record (%d records)" records)
    ~bound:8.0
    (words /. float_of_int records)

(* --- digest fold: words per folded record --------------------------- *)

(* The [emit_pcap] occasion of the capture golden: every sample carries
   its pcap, which [add_report] digests and counts in one fold. *)
let test_digest_fold_words () =
  let report =
    Test_capture.golden_occasion (List.assoc "emit_pcap" Test_capture.golden_configs)
  in
  let records =
    List.fold_left
      (fun n (s : Patchwork.Capture.sample) -> n + List.length s.Patchwork.Capture.acaps)
      0
      (Patchwork.Coordinator.all_samples report)
  in
  let b = Analysis.Profile.Builder.create () in
  Analysis.Profile.Builder.add_report b report;
  let words = minor_words (fun () -> Analysis.Profile.Builder.add_report b report) in
  check_at_most
    (Printf.sprintf "digest fold: add_report minor words per record (%d records)" records)
    ~bound:12.0
    (words /. float_of_int records)

(* --- capture: words per materialized record ------------------------ *)

(* Eight specs over one second, about 2,000 draws each: single flows and
   64-subflow aggregates, over IPv4 and IPv6, PseudoWire and VXLAN. *)
let capture_specs () =
  let rng = Rng.create 42 in
  List.mapi
    (fun i name ->
      let service = Option.get (Dissect.Services.by_name name) in
      let template =
        Traffic.Stack_builder.forward rng
          {
            Traffic.Stack_builder.vlan_id = 100 + i;
            mpls_labels = [ 16 + i ];
            use_pseudowire = i mod 3 = 0;
            use_vxlan = i mod 4 = 1;
            use_ipv6 = i mod 5 = 2;
            service;
          }
      in
      Traffic.Flow_model.make ~flow_id:i ~template
        ~frame_size:
          (Netcore.Dist.Empirical
             [| (1.0, 64.0); (1.0, 600.0); (4.0, 1500.0); (1.0, 9000.0) |])
        ~avg_frame_size:800.0 ~byte_rate:(800.0 *. 2000.0) ~start_time:0.0
        ~duration:10.0
        ~subflows:(if i mod 2 = 0 then 1 else 64)
        ())
    [ "tls"; "iperf3"; "dns"; "ssh"; "mysql"; "nfs"; "http"; "quic" ]

let test_capture_words () =
  let specs = capture_specs () in
  let materialize () =
    Patchwork.Capture.materialize ~config:Patchwork.Config.default ~rng:(Rng.create 7)
      ~fraction:1.0 ~start_time:0.0 ~end_time:1.0 specs
  in
  let records = List.length (materialize ()).Patchwork.Capture.records in
  let words = minor_words materialize in
  check_at_most
    (Printf.sprintf "capture: materialize minor words per record (%d records)" records)
    ~bound:45.0
    (words /. float_of_int records)

(* --- capture with pcap: words per record, and the pcap's buffer ------ *)

(* The [capture words] specs with [emit_pcap], at the default snap
   length: the pcap MD5 is the one every frame built and encoded per
   draw wrote. *)
let test_capture_pcap_words () =
  let specs = capture_specs () in
  let materialize () =
    Patchwork.Capture.materialize
      ~config:{ Patchwork.Config.default with Patchwork.Config.emit_pcap = true }
      ~rng:(Rng.create 7) ~fraction:1.0 ~start_time:0.0 ~end_time:1.0 specs
  in
  let m = materialize () in
  let records = float_of_int (List.length m.Patchwork.Capture.records) in
  let pcap = Option.get m.Patchwork.Capture.pcap in
  let pcap_words = float_of_int (Bytes.length pcap / (Sys.word_size / 8)) in
  Printf.printf "capture with pcap: %.0f records, %d pcap bytes\n" records
    (Bytes.length pcap);
  Alcotest.(check string) "pcap MD5" "1c923f57d6d56ec3bb632014c7f2c101"
    (Digest.to_hex (Digest.bytes pcap));
  let minor, major = heap_words materialize in
  check_at_most "capture with pcap: materialize minor words per record" ~bound:60.0
    (minor /. records);
  check_at_most
    "capture with pcap: words allocated in the major heap over the pcap's words"
    ~bound:1.1 (major /. pcap_words)

(* --- rng: words per draw ------------------------------------------- *)

let test_rng_draw_words () =
  let rng = Rng.create 42 in
  let sizes = Netcore.Dist.Empirical [| (1.0, 64.0); (2.0, 1500.0); (1.0, 9000.0) |] in
  let per_draw f =
    let n = 1000 in
    minor_words (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (f ()))
        done)
    /. float_of_int n
  in
  let int () = Rng.int rng 1000 and sample () = Netcore.Dist.sample_int sizes rng in
  ignore (per_draw int);
  check_at_most "rng: Rng.int minor words per draw" ~bound:0.0 (per_draw int);
  check_at_most "rng: Dist.sample_int (Empirical) minor words per draw" ~bound:2.0
    (per_draw sample)

(* --- telemetry: words per port per poll and per rate read ---------- *)

(* The 951 ports of a [Fablib.create ~seed:2024] fabric, polled by its
   telemetry.  After two warm-up polls (the second takes the first
   rates), five polls are measured, then one [port_avg_rate] per port
   over the last 30 minutes, after a warm-up pass. *)
let test_telemetry_words () =
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:2024 engine in
  let telemetry = Testbed.Fablib.telemetry fabric in
  let ports =
    Array.to_list (Testbed.Fablib.model fabric).Testbed.Info_model.sites
    |> List.concat_map (fun (s : Testbed.Info_model.site) ->
           let site = s.Testbed.Info_model.name in
           List.map (fun port -> (site, port)) (Testbed.Fablib.all_ports fabric ~site))
  in
  let n = float_of_int (List.length ports) in
  Testbed.Fablib.start_telemetry fabric;
  Simcore.Engine.run ~until:600.0 engine;
  let polls = minor_words (fun () -> Simcore.Engine.run ~until:2100.0 engine) in
  let read () =
    List.iter
      (fun (site, port) ->
        ignore
          (Sys.opaque_identity
             (Testbed.Telemetry.port_avg_rate telemetry ~site ~port ~window:1800.0
                ~at:2100.0)))
      ports
  in
  read ();
  let per_poll = polls /. (5.0 *. n) and per_read = minor_words read /. n in
  Printf.printf "telemetry: %.0f ports; %.1f minor words per port per poll, %.1f per read\n"
    n per_poll per_read;
  check_at_most "telemetry: minor words per port per poll" ~bound:16.0 per_poll;
  check_at_most "telemetry: minor words per port_avg_rate" ~bound:16.0 per_read

let suites =
  [
    ( "gates",
      [
        Alcotest.test_case "decode registry overhead" `Quick
          test_decode_registry_overhead;
        Alcotest.test_case "collect words per cell" `Quick
          test_collect_words_per_cell;
        Alcotest.test_case "tsdb words per point" `Quick test_tsdb_words_per_point;
        Alcotest.test_case "ledger words per sample" `Quick test_ledger_words_per_sample;
        Alcotest.test_case "instrumentation share of occasion" `Quick
          test_instrumentation_share;
        Alcotest.test_case "flow-store top-k promoted" `Quick
          test_flowstore_topk_promoted;
        Alcotest.test_case "store scan words per record" `Quick
          test_store_scan_words;
        Alcotest.test_case "span root history words" `Quick
          test_span_root_history;
        Alcotest.test_case "pcap record words" `Quick test_pcap_record_words;
        Alcotest.test_case "profile absorb words" `Quick test_profile_absorb_words;
        Alcotest.test_case "capture words" `Quick test_capture_words;
        Alcotest.test_case "capture words with pcap" `Quick test_capture_pcap_words;
        Alcotest.test_case "digest fold words per record" `Quick
          test_digest_fold_words;
        Alcotest.test_case "rng draw words" `Quick test_rng_draw_words;
        Alcotest.test_case "telemetry words" `Quick test_telemetry_words;
      ] );
  ]
