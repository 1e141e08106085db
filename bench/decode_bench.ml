(* Copied vs sliced vs overlay decode of a synthetic capture.

   Three ways through the offline pipeline:
     copied  Pcapng.read_any materializes every packet (Bytes.sub) and
             the acap list is dissected from the copies — the pre-index
             baseline;
     sliced  Pcap/Pcapng index + Packet.Slice views, parallel dissection
             over index ranges, same acap list, no payload copies;
     overlay the zero-alloc cursor (Digest.pcap_to_flows): header
             fields are read in place through Packet.Slice and streamed
             into per-range flow shards, no header records at all —
             only the flow key string survives.

   Wall clock is hardware-dependent; the Gc allocation counters are not
   (on one domain they are exact and deterministic), so the bench's
   pass/fail signal is allocation plus bit-identical output.

   Environment knobs (for CI smoke runs):
     PATCHWORK_BENCH_FRAMES   synthetic capture size (default 100000)
     PATCHWORK_BENCH_DOMAINS  comma-separated pool sizes (default 2,4) *)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let pool_sizes () =
  match Sys.getenv_opt "PATCHWORK_BENCH_DOMAINS" with
  | Some s ->
    let sizes = List.filter_map int_of_string_opt (String.split_on_char ',' s) in
    if sizes = [] then [ 2; 4 ] else sizes
  | None -> [ 2; 4 ]

(* FABRIC-style frames with MTU-ish data payloads (bulk transfers
   dominate capture bytes): the copying baseline's cost scales with
   payload bytes, so realistic data-frame sizes keep the comparison
   honest. *)
let random_frame rng =
  let services = [| "tls"; "iperf3"; "dns"; "ssh"; "mysql"; "nfs" |] in
  let service =
    Option.get (Dissect.Services.by_name (Netcore.Rng.choice rng services))
  in
  let stack =
    Traffic.Stack_builder.forward rng
      {
        Traffic.Stack_builder.vlan_id = 100 + Netcore.Rng.int rng 3900;
        mpls_labels = [ 16 + Netcore.Rng.int rng 100_000 ];
        use_pseudowire = Netcore.Rng.bernoulli rng 0.3;
        use_vxlan = Netcore.Rng.bernoulli rng 0.05;
        use_ipv6 = Netcore.Rng.bernoulli rng 0.02;
        service;
      }
  in
  Packet.Frame.make stack ~payload_len:(1400 + Netcore.Rng.int rng 401)

type run = { wall : float; minor : float; major : float }

(* Machine-readable results (CI uploads BENCH_decode.json as an
   artifact; the trend across commits is the regression signal). *)
let json_runs : Obs.Export.Json.t list ref = ref []

let record label domains (m : run) identical =
  json_runs :=
    Obs.Export.Json.Obj
      [
        ("label", Obs.Export.Json.Str label);
        ("domains", Obs.Export.Json.Num (float_of_int domains));
        ("wall_s", Obs.Export.Json.Num m.wall);
        ("minor_words", Obs.Export.Json.Num m.minor);
        ("major_words", Obs.Export.Json.Num m.major);
        ("identical", Obs.Export.Json.Bool identical);
      ]
    :: !json_runs

let write_json path fields =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Export.Json.to_string (Obs.Export.Json.Obj fields));
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

let measure f =
  Gc.full_major ();
  (* Gc.minor_words () reads the allocation pointer, so it is exact
     between collections; quick_stat's copy is only refreshed at GC
     points and would hide up to a minor-heap's worth of allocation. *)
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      wall;
      minor = m1 -. m0;
      major = s1.Gc.major_words -. s0.Gc.major_words;
    } )

let pr label domains m extra =
  Printf.printf "%-7s %2d domain(s)  %7.3f s  minor %8.2f Mw  major %8.2f Mw%s\n%!"
    label domains m.wall (m.minor /. 1e6) (m.major /. 1e6) extra

let () =
  let frames = getenv_int "PATCHWORK_BENCH_FRAMES" 100_000 in
  let rng = Netcore.Rng.create 42 in
  (* A fixed population of flow templates so the flows path sees
     key repetition rather than one flow per packet. *)
  let templates = Array.init 256 (fun _ -> random_frame rng) in
  let w = Packet.Pcap.Writer.create () in
  for i = 0 to frames - 1 do
    Packet.Pcap.Writer.add_frame w
      ~ts:(float_of_int i *. 1e-5)
      (Netcore.Rng.choice rng templates)
  done;
  let buf = Packet.Pcap.Writer.contents w in
  Printf.printf "== decode: copied vs sliced vs overlay ==\n";
  Printf.printf "workload: %d packets, %.1f MB capture, %d cores available\n%!"
    frames
    (float_of_int (Bytes.length buf) /. 1e6)
    (Domain.recommended_domain_count ());
  let ok = ref true in
  let check b = ok := !ok && b; b in
  (* Sequential (1 domain): Gc counters are exact and deterministic. *)
  let copied_acaps, m_copied =
    measure (fun () ->
        List.map Dissect.Acap.of_packet (Packet.Pcapng.read_any buf))
  in
  pr "copied" 1 m_copied "";
  record "copied" 1 m_copied true;
  let sliced_acaps, m_sliced =
    measure (fun () -> Analysis.Digest.pcap_to_acaps buf)
  in
  let sliced_identical = check (sliced_acaps = copied_acaps) in
  pr "sliced" 1 m_sliced (Printf.sprintf "  identical=%b" sliced_identical);
  record "sliced" 1 m_sliced sliced_identical;
  let savings = 100.0 *. (1.0 -. (m_sliced.minor /. m_copied.minor)) in
  Printf.printf "sliced minor-heap savings vs copied: %.1f%% (target >= 30%%)\n%!"
    savings;
  let baseline_flows = Analysis.Flows.aggregate copied_acaps in
  (* Overlay cursor: same flows, no header records — its minor-heap
     floor per frame is the regression signal. *)
  let overlay_flows, m_overlay =
    measure (fun () -> Analysis.Digest.pcap_to_flows buf)
  in
  let overlay_identical = check (overlay_flows = baseline_flows) in
  pr "overlay" 1 m_overlay
    (Printf.sprintf "  identical=%b (%d flows)" overlay_identical
       (List.length overlay_flows));
  record "overlay" 1 m_overlay overlay_identical;
  (* Parallel: wall clock only (allocation spreads across domains), but
     the bit-identical guarantee must hold at every pool size. *)
  List.iter
    (fun n ->
      Parallel.Pool.with_pool ~size:n (fun pool ->
          let acaps, m =
            measure (fun () -> Analysis.Digest.pcap_to_acaps ~pool buf)
          in
          let identical = check (acaps = copied_acaps) in
          pr "sliced" n m
            (Printf.sprintf "  %5.2fx  identical=%b"
               (m_sliced.wall /. Float.max 1e-9 m.wall)
               identical);
          record "sliced" n m identical;
          let flows, m =
            measure (fun () -> Analysis.Digest.pcap_to_flows ~pool buf)
          in
          let identical = check (flows = baseline_flows) in
          pr "overlay" n m
            (Printf.sprintf "  %5.2fx  identical=%b"
               (m_overlay.wall /. Float.max 1e-9 m.wall)
               identical);
          record "overlay" n m identical))
    (pool_sizes ());
  (* One domain keeps the allocation counter exact. *)
  let overlay_wpf = m_overlay.minor /. float_of_int frames in
  Printf.printf "overlay minor words/frame: %.1f\n%!" overlay_wpf;
  (* Instrumentation overhead: counters are batched per range and spans
     per stage, so disabling the registry must recover <5% wall clock on
     the sliced decode.  min-of-3 runs on each side; the absolute floor
     keeps sub-hundred-millisecond smoke workloads from failing on
     scheduler noise. *)
  let min_wall f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let _, m = measure f in
      if m.wall < !best then best := m.wall
    done;
    !best
  in
  Obs.Registry.set_enabled false;
  let t_off = min_wall (fun () -> Analysis.Digest.pcap_to_acaps buf) in
  Obs.Registry.set_enabled true;
  let t_on = min_wall (fun () -> Analysis.Digest.pcap_to_acaps buf) in
  let overhead_pct = 100.0 *. (t_on -. t_off) /. Float.max 1e-9 t_off in
  Printf.printf
    "metrics overhead on sliced decode: %.3f s off, %.3f s on, %+.2f%% \
     (budget < 5%%)\n%!"
    t_off t_on overhead_pct;
  let overhead_failed = overhead_pct > 5.0 && t_on -. t_off > 0.02 in
  write_json "BENCH_decode.json"
    [
      ("bench", Obs.Export.Json.Str "decode");
      ("frames", Obs.Export.Json.Num (float_of_int frames));
      ("capture_bytes", Obs.Export.Json.Num (float_of_int (Bytes.length buf)));
      ("runs", Obs.Export.Json.Arr (List.rev !json_runs));
      ("sliced_minor_savings_pct", Obs.Export.Json.Num savings);
      ( "overlay",
        Obs.Export.Json.Obj
          [ ("minor_words_per_frame", Obs.Export.Json.Num overlay_wpf) ] );
      ( "metrics_overhead",
        Obs.Export.Json.Obj
          [
            ("disabled_wall_s", Obs.Export.Json.Num t_off);
            ("enabled_wall_s", Obs.Export.Json.Num t_on);
            ("pct", Obs.Export.Json.Num overhead_pct);
          ] );
    ];
  if not !ok then begin
    Printf.printf "FAIL: sliced/overlay output diverged from the copying path\n";
    exit 1
  end;
  if overhead_failed then begin
    Printf.printf "FAIL: metrics overhead %.2f%% exceeds the 5%% budget\n"
      overhead_pct;
    exit 1
  end;
  if savings < 30.0 then
    Printf.printf
      "WARN: sliced minor-heap savings %.1f%% below the 30%% target\n" savings
