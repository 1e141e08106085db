(* The loss-attribution ledger: conservation as a property, exemplar
   determinism under sharding, and the /lossmap.json contract. *)

module L = Obs.Ledger
module J = Obs.Export.Json

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let last_closed l =
  match List.rev (L.history l) with e :: _ -> Some e | [] -> None

(* --- cause taxonomy --- *)

let test_cause_labels () =
  checkb "labels distinct" true
    (let ls = List.map L.cause_label L.all_causes in
     List.length (List.sort_uniq compare ls) = List.length ls)

(* --- conservation: balanced close, violation detection --- *)

let balanced_sample l ~site =
  L.record_sample l ~site ~offered_frames:1000.0 ~offered_bytes:8.0e5
    ~stored_frames:900.0 ~stored_bytes:7.0e5
    ~keys:[ "k1"; "k2" ]
    [
      (L.Switch_drop, 60.0, 5.0e4);
      (L.Host_drop L.Kernel, 40.0, 3.0e4);
      (L.Truncated, 0.0, 2.0e4);
    ]

let test_conservation_close () =
  let l = L.create () in
  L.begin_occasion l ~at:100.0;
  balanced_sample l ~site:"STAR";
  balanced_sample l ~site:"TACC";
  let e = L.close_occasion l in
  check Alcotest.int "two sites" 2 (List.length e.L.o_sites);
  List.iter
    (fun (s : L.site_entry) ->
      checkb (s.L.e_site ^ " conserved") true s.L.e_conserved;
      check (Alcotest.float 1e-9) "frames residual" 0.0 s.L.e_frames_residual)
    e.L.o_sites;
  (* A second close is a fresh (empty) occasion with the next seq. *)
  let e2 = L.close_occasion l in
  check Alcotest.int "seq advances" 1 e2.L.o_seq;
  check Alcotest.int "accumulation cleared" 0 (List.length e2.L.o_sites);
  check Alcotest.int "history retained" 2 (List.length (L.history l))

let test_violation_detected () =
  let was_strict = L.strict () in
  Fun.protect
    ~finally:(fun () -> L.set_strict was_strict)
    (fun () ->
      let violations () =
        match
          Obs.Registry.value Obs.Registry.default
            "ledger_conservation_violations_total"
        with
        | Some (Obs.Registry.Counter v) -> v
        | _ -> 0.0
      in
      let l = L.create () in
      L.begin_occasion l ~at:0.0;
      (* 100 offered frames vanish without an attributed cause. *)
      L.record_sample l ~site:"STAR" ~offered_frames:1000.0
        ~offered_bytes:8.0e5 ~stored_frames:900.0 ~stored_bytes:8.0e5 [];
      L.set_strict false;
      let logged = ref [] in
      let before = violations () in
      let e = L.close_occasion ~log:(fun m -> logged := m :: !logged) l in
      let s = List.hd e.L.o_sites in
      checkb "not conserved" false s.L.e_conserved;
      check (Alcotest.float 1e-9) "residual is the leak" 100.0
        s.L.e_frames_residual;
      checkb "violation counted" true (violations () = before +. 1.0);
      checkb "violation logged" true (!logged <> []);
      (* The same leak under strict mode raises. *)
      L.set_strict true;
      L.begin_occasion l ~at:0.0;
      L.record_sample l ~site:"STAR" ~offered_frames:1000.0
        ~offered_bytes:8.0e5 ~stored_frames:900.0 ~stored_bytes:8.0e5 [];
      checkb "strict close raises" true
        (match L.close_occasion l with
        | exception L.Conservation_violation _ -> true
        | _ -> false))

(* --- exemplar determinism --- *)

(* The reservoir is a pure function of the candidate key set: the K = 5
   unsigned-smallest priorities under the (site, occasion-start) seed,
   ties toward the smaller key. *)
let expected_exemplars ~site ~at keys =
  let seed = L.seed_for ~site ~at in
  List.sort_uniq compare keys
  |> List.map (fun key -> (L.priority ~seed key, key))
  |> List.sort (fun (p, a) (q, b) ->
         let c = Int64.unsigned_compare p q in
         if c <> 0 then c else String.compare a b)
  |> List.filteri (fun i _ -> i < 5)
  |> List.map snd

let exemplars_of_entry (e : L.occasion_entry) ~site ~cause =
  match List.find_opt (fun (s : L.site_entry) -> s.L.e_site = site) e.L.o_sites with
  | None -> []
  | Some s ->
    List.concat_map
      (fun (c, _, _, exs) -> if c = cause then exs else [])
      s.L.e_causes

(* Feed the same key multiset through [shards] record_sample calls,
   round-robin, in the given traversal order. *)
let run_sharded ~at ~site ~shards keys =
  let l = L.create () in
  L.begin_occasion l ~at;
  let buckets = Array.make shards [] in
  List.iteri
    (fun i key -> buckets.(i mod shards) <- key :: buckets.(i mod shards))
    keys;
  Array.iter
    (fun ks ->
      L.record_sample l ~site ~offered_frames:1.0 ~offered_bytes:0.0
        ~stored_frames:0.0 ~stored_bytes:0.0 ~keys:ks
        [ (L.Switch_drop, 1.0, 0.0) ])
    buckets;
  exemplars_of_entry (L.close_occasion l) ~site ~cause:L.Switch_drop

let qcheck_exemplars_deterministic =
  QCheck.Test.make ~count:200
    ~name:"exemplar reservoir independent of sharding and order"
    QCheck.(small_list (string_gen_of_size (Gen.int_range 1 12) Gen.printable))
    (fun keys ->
      let at = 2.5e6 and site = "STAR" in
      let reference = expected_exemplars ~site ~at keys in
      List.for_all
        (fun shards -> run_sharded ~at ~site ~shards keys = reference)
        [ 1; 2; 4 ]
      && run_sharded ~at ~site ~shards:2 (List.rev keys) = reference)

(* --- conservation property over the capture arithmetic --- *)

let breakdown_gen =
  QCheck.Gen.(
    let* offered = map float_of_int (int_bound 2_000_000) in
    let* dur10 = int_range 1 300 in
    let* avg = map (fun i -> 60.0 +. float_of_int i) (int_bound 8940) in
    let* dropc = int_bound 100 in
    let* congested = bool in
    let* capacity = map float_of_int (int_bound 2_000_000) in
    let* trunc = oneofl [ 64; 200; 1514; 9000 ] in
    let* stride = int_range 1 8 in
    let* path = oneofl [ L.Kernel; L.Dpdk; L.Fpga ] in
    return
      ( offered,
        0.1 *. float_of_int dur10,
        avg,
        float_of_int dropc /. 100.0,
        congested,
        capacity,
        trunc,
        stride,
        path ))

let arb_stream =
  QCheck.make
    ~print:(fun samples ->
      String.concat ";\n"
        (List.map
           (fun (o, d, a, f, c, cap, tr, st, _) ->
             Printf.sprintf
               "offered=%g dur=%g avg=%g drop=%g congested=%b cap=%g trunc=%d \
                stride=%d"
               o d a f c cap tr st)
           samples))
    QCheck.Gen.(list_size (int_range 1 20) breakdown_gen)

let qcheck_conservation_adversarial =
  QCheck.Test.make ~count:300
    ~name:"conservation invariant under adversarial capture streams"
    arb_stream
    (fun samples ->
      let l = L.create () in
      L.begin_occasion l ~at:1.0e6;
      let sites = [| "STAR"; "TACC"; "UTAH" |] in
      List.iteri
        (fun i
             ( offered_pps,
               duration,
               avg_frame_size,
               switch_drop_frac,
               congested,
               capacity_pps,
               truncation,
               sample_1_in,
               host_path ) ->
          let b =
            Patchwork.Capture.loss_breakdown ~offered_pps ~duration
              ~avg_frame_size ~switch_drop_frac ~congested ~capacity_pps
              ~truncation ~sample_1_in ~host_path
          in
          let site = sites.(i mod Array.length sites) in
          L.record_sample l ~site
            ~offered_frames:b.Patchwork.Capture.b_offered_frames
            ~offered_bytes:b.Patchwork.Capture.b_offered_bytes
            ~stored_frames:b.Patchwork.Capture.b_captured_frames
            ~stored_bytes:b.Patchwork.Capture.b_stored_wire_bytes
            ~keys:[ Printf.sprintf "flow-%d" i ]
            b.Patchwork.Capture.b_causes)
        samples;
      (* Strict mode is on for the whole suite: a violating close would
         raise rather than return. *)
      let e = L.close_occasion l in
      List.for_all (fun (s : L.site_entry) -> s.L.e_conserved) e.L.o_sites)

(* Every float of a breakdown, as its bits, so -0.0 and 0.0 differ. *)
let breakdown_bits (b : Patchwork.Capture.breakdown) =
  List.map Int64.bits_of_float
    ([
       b.Patchwork.Capture.b_offered_frames;
       b.Patchwork.Capture.b_offered_bytes;
       b.Patchwork.Capture.b_switch_dropped;
       b.Patchwork.Capture.b_host_dropped;
       b.Patchwork.Capture.b_captured_frames;
       b.Patchwork.Capture.b_host_keep;
       b.Patchwork.Capture.b_stored_wire_bytes;
     ]
    @ List.concat_map (fun (_, f, by) -> [ f; by ]) b.Patchwork.Capture.b_causes)

(* At a stride of 1 the split is the one from before the stride was
   counted, bit for bit: the same causes in the same order, and a
   [Sampled] cause of zero frames and bytes after them. *)
let qcheck_stride_one_unchanged =
  QCheck.Test.make ~count:500 ~name:"a stride of 1 leaves the split unchanged"
    (QCheck.make breakdown_gen)
    (fun (offered_pps, duration, avg_frame_size, switch_drop_frac, congested,
          capacity_pps, truncation, _, host_path) ->
      let b =
        Patchwork.Capture.loss_breakdown ~offered_pps ~duration ~avg_frame_size
          ~switch_drop_frac ~congested ~capacity_pps ~truncation ~sample_1_in:1
          ~host_path
      in
      let reference =
        Oracle.loss_breakdown ~offered_pps ~duration ~avg_frame_size ~switch_drop_frac
          ~congested ~capacity_pps ~truncation ~host_path
      in
      let sampled, rest =
        List.partition (fun (c, _, _) -> c = L.Sampled) b.Patchwork.Capture.b_causes
      in
      sampled = [ (L.Sampled, 0.0, 0.0) ]
      && List.map (fun (c, _, _) -> c) rest
         = List.map (fun (c, _, _) -> c) reference.Patchwork.Capture.b_causes
      && breakdown_bits { b with Patchwork.Capture.b_causes = rest }
         = breakdown_bits reference)

(* --- the FPGA offload's stride --- *)

(* One second of 3,200 frames/s of 200 B frames on a clean mirror, as
   the capture hands it to the ledger under [config]. *)
let probe (config : Patchwork.Config.t) =
  let sample_1_in, host_path =
    match config.Patchwork.Config.capture_method with
    | Patchwork.Config.Fpga_dpdk { sample_1_in; _ } -> (sample_1_in, L.Fpga)
    | Patchwork.Config.Dpdk _ -> (1, L.Dpdk)
    | Patchwork.Config.Tcpdump -> (1, L.Kernel)
  in
  Patchwork.Capture.loss_breakdown ~offered_pps:3200.0 ~duration:1.0
    ~avg_frame_size:200.0 ~switch_drop_frac:0.0 ~congested:false
    ~capacity_pps:(Patchwork.Capture.method_capacity_pps config)
    ~truncation:config.Patchwork.Config.truncation ~sample_1_in ~host_path

let offload_probe_config =
  {
    Patchwork.Config.default with
    Patchwork.Config.truncation = 128;
    capture_method = Patchwork.Config.Fpga_dpdk { cores = 2; sample_1_in = 4 };
  }

let cause_amounts (b : Patchwork.Capture.breakdown) cause =
  List.find_map
    (fun (c, frames, bytes) -> if c = cause then Some (frames, bytes) else None)
    b.Patchwork.Capture.b_causes

(* The offload forwards 1 in 4 of the frames: the host stores 800 frames
   cut at 128 B, and the 2,400 the stride skips are [Sampled], not
   stored and not lost.  The DPDK writer alone stores every frame. *)
let test_offload_stride_counted () =
  let b = probe offload_probe_config in
  let amount = Alcotest.(pair (float 0.0) (float 0.0)) in
  check amount "stored" (800.0, 102_400.0)
    (b.Patchwork.Capture.b_captured_frames, b.Patchwork.Capture.b_stored_wire_bytes);
  check Alcotest.(option amount) "sampled" (Some (2400.0, 480_000.0))
    (cause_amounts b L.Sampled);
  check Alcotest.(option amount) "truncated" (Some (0.0, 57_600.0))
    (cause_amounts b L.Truncated);
  check Alcotest.(option amount) "host drops" (Some (0.0, 0.0))
    (cause_amounts b (L.Host_drop L.Fpga));
  let d =
    probe
      {
        Patchwork.Config.default with
        Patchwork.Config.capture_method = Patchwork.Config.Dpdk { cores = 2 };
      }
  in
  check amount "DPDK stores every frame" (3200.0, 640_000.0)
    (d.Patchwork.Capture.b_captured_frames, d.Patchwork.Capture.b_stored_wire_bytes);
  check Alcotest.(option amount) "DPDK samples nothing" (Some (0.0, 0.0))
    (cause_amounts d L.Sampled)

(* A loss-free 1-in-4 capture loses nothing: its drop rate reads 0, so
   the default rule [site_drop_rate > 0.05 for 3] does not fire on
   sampling. *)
let test_offload_drop_rate_zero () =
  let site = "OFFLOAD-PROBE" in
  let col = Obs.Series.Collector.create () in
  Obs.Series.Collector.collect col ~at:0.0 Obs.Registry.default;
  let l = L.create () in
  L.begin_occasion l ~at:0.0;
  let b = probe offload_probe_config in
  L.record_sample l ~site ~offered_frames:b.Patchwork.Capture.b_offered_frames
    ~offered_bytes:b.Patchwork.Capture.b_offered_bytes
    ~stored_frames:b.Patchwork.Capture.b_captured_frames
    ~stored_bytes:b.Patchwork.Capture.b_stored_wire_bytes b.Patchwork.Capture.b_causes;
  let e = L.close_occasion l in
  checkb "conserved" true (List.for_all (fun s -> s.L.e_conserved) e.L.o_sites);
  let points = Obs.Series.Collector.collect_points col ~at:1.0 Obs.Registry.default in
  check
    Alcotest.(option (float 0.0))
    "drop rate" (Some 0.0)
    (List.find_map
       (fun (name, labels, (p : Obs.Series.point)) ->
         if name = "site_drop_rate" && labels = [ ("site", site) ] then
           Some p.Obs.Series.value
         else None)
       points)

(* --- real occasions: determinism across pool sizes --- *)

let run_occasion ?(config = fun c -> c) ~pool_size seed =
  L.reset L.default;
  let start_time = 30.0 *. Netcore.Timebase.day in
  Parallel.Pool.with_pool ~size:pool_size @@ fun pool ->
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create ~pool fabric ~seed in
  let base =
    {
      Patchwork.Config.default with
      Patchwork.Config.mode =
        Patchwork.Config.Single_experiment
          [ ("STAR", Testbed.Fablib.all_ports fabric ~site:"STAR") ];
      samples_per_run = 2;
      max_frames_per_sample = 500;
      pool_size = Parallel.Pool.size pool;
    }
  in
  let report =
    Patchwork.Coordinator.run_occasion ~fabric ~driver ~config:(config base)
      ~pool ~start_time ~duration:1800.0 ()
  in
  (report, J.to_string (L.to_json L.default))

let test_occasion_pool_determinism () =
  let _, j1 = run_occasion ~pool_size:1 77 in
  let _, j2 = run_occasion ~pool_size:2 77 in
  let _, j4 = run_occasion ~pool_size:4 77 in
  checkb "ledger json nonempty" true (String.length j1 > 2);
  check Alcotest.string "pool 1 = pool 2" j1 j2;
  check Alcotest.string "pool 1 = pool 4" j1 j4;
  (* The occasion actually exercised the ledger. *)
  match last_closed L.default with
  | None -> Alcotest.fail "no closed occasion in the default ledger"
  | Some e ->
    let star =
      List.find_opt (fun (s : L.site_entry) -> s.L.e_site = "STAR") e.L.o_sites
    in
    (match star with
    | None -> Alcotest.fail "no STAR entry"
    | Some s ->
      checkb "offered frames recorded" true (s.L.e_offered_frames > 0.0);
      checkb "conserved" true s.L.e_conserved)

(* --- the collector's site_drop_rate is the ledger's --- *)

let test_site_drop_rate_is_ledgers () =
  let col = Obs.Series.Collector.create () in
  Obs.Series.Collector.collect col ~at:0.0 Obs.Registry.default;
  (* A kernel path slow enough (~2k pps) that the host drops frames. *)
  let slow =
    {
      Hostmodel.Host_profile.default with
      Hostmodel.Host_profile.kernel_fixed_cost = 5e-4;
    }
  in
  let report, _ =
    run_occasion
      ~config:(fun c -> { c with Patchwork.Config.host_profile = slow })
      ~pool_size:1 77
  in
  let points =
    Obs.Series.Collector.collect_points col
      ~at:
        (report.Patchwork.Coordinator.occasion_start
        +. report.Patchwork.Coordinator.occasion_duration)
      Obs.Registry.default
  in
  let drop_rate site =
    List.find_map
      (fun (name, labels, (p : Obs.Series.point)) ->
        if name = "site_drop_rate" && labels = [ ("site", site) ] then
          Some p.Obs.Series.value
        else None)
      points
  in
  (match last_closed L.default with
  | None -> Alcotest.fail "no closed occasion"
  | Some e ->
    checkb "some site lost frames" true
      (List.exists
         (fun (s : L.site_entry) -> s.L.e_stored_frames < s.L.e_offered_frames)
         e.L.o_sites);
    List.iter
      (fun (s : L.site_entry) ->
        check
          Alcotest.(option (float 1e-12))
          (s.L.e_site ^ " drop rate")
          (Some
             ((s.L.e_offered_frames -. s.L.e_stored_frames)
             /. s.L.e_offered_frames))
          (drop_rate s.L.e_site))
      e.L.o_sites);
  (* One loss account: the capture keeps no per-site or loss counters. *)
  List.iter
    (fun (m : Obs.Registry.sample) ->
      let name = m.Obs.Registry.s_name in
      if String.starts_with ~prefix:"capture_" name then begin
        checkb (name ^ " has no site label") false
          (List.mem_assoc "site" m.Obs.Registry.s_labels);
        checkb (name ^ " is not a loss counter") false
          (List.mem name
             [
               "capture_offered_frames_total";
               "capture_switch_dropped_frames_total";
               "capture_host_dropped_frames_total";
             ])
      end)
    (Obs.Registry.snapshot Obs.Registry.default)

(* --- /lossmap.json agrees with the in-process ledger --- *)

let lossmap_req query =
  { Obs.Http.meth = "GET"; path = "/lossmap.json"; query; headers = [] }

let test_lossmap_endpoint () =
  let l = L.create () in
  L.begin_occasion l ~at:100.0;
  balanced_sample l ~site:"STAR";
  ignore (L.close_occasion l);
  L.begin_occasion l ~at:200.0;
  balanced_sample l ~site:"TACC";
  ignore (L.close_occasion l);
  let body query =
    let r = Obs.Endpoints.lossmap ~ledger:l (lossmap_req query) in
    (r.Obs.Http.status, r.Obs.Http.body)
  in
  (* Unfiltered body is exactly the ledger's own rendering. *)
  let status, b = body [] in
  check Alcotest.int "200" 200 status;
  check Alcotest.string "body = ledger json" (J.to_string (L.to_json l) ^ "\n")
    b;
  (* Occasion and site filters. *)
  let _, b0 = body [ ("occasion", "0") ] in
  checkb "occasion filter keeps seq 0" true
    (match J.parse b0 with
    | Ok doc -> (
      match J.member "occasions" doc with
      | Some (J.Arr [ occ ]) ->
        Option.bind (J.member "seq" occ) J.to_float = Some 0.0
      | _ -> false)
    | Error _ -> false);
  let _, bs = body [ ("site", "TACC") ] in
  checkb "site filter drops other occasions" true
    (match J.parse bs with
    | Ok doc -> (
      match J.member "occasions" doc with
      | Some (J.Arr [ occ ]) ->
        Option.bind (J.member "seq" occ) J.to_float = Some 1.0
      | _ -> false)
    | Error _ -> false);
  (* Malformed filter is a 400, not a crash. *)
  let status, _ = body [ ("occasion", "abc") ] in
  check Alcotest.int "malformed occasion is 400" 400 status

let suites =
  [
    ( "ledger",
      [
        Alcotest.test_case "cause labels distinct" `Quick test_cause_labels;
        Alcotest.test_case "balanced occasions close conserved" `Quick
          test_conservation_close;
        Alcotest.test_case "violations detected, counted, strict-raised" `Quick
          test_violation_detected;
        QCheck_alcotest.to_alcotest qcheck_exemplars_deterministic;
        QCheck_alcotest.to_alcotest qcheck_conservation_adversarial;
        QCheck_alcotest.to_alcotest qcheck_stride_one_unchanged;
        Alcotest.test_case "the offload's stride is counted" `Quick
          test_offload_stride_counted;
        Alcotest.test_case "sampling is not loss" `Quick test_offload_drop_rate_zero;
        Alcotest.test_case "occasion ledger identical at pools 1/2/4" `Slow
          test_occasion_pool_determinism;
        Alcotest.test_case "site drop rate is the ledger's" `Slow
          test_site_drop_rate_is_ledgers;
        Alcotest.test_case "/lossmap.json agrees with the ledger" `Quick
          test_lossmap_endpoint;
      ] );
  ]
