(* Edge-case coverage across layers: wire codecs, pcap endianness,
   filter rendering, instance/watchdog behavior, capture thinning. *)

open Netcore

(* --- Wire --- *)

let test_writer_growth () =
  let w = Wire.Writer.create ~capacity:4 () in
  for i = 0 to 999 do
    Wire.Writer.u16 w i
  done;
  Alcotest.(check int) "length" 2000 (Wire.Writer.length w);
  let b = Wire.Writer.contents w in
  Alcotest.(check int) "first" 0 (Bytes.get_uint16_be b 0);
  Alcotest.(check int) "last" 999 (Bytes.get_uint16_be b 1998)

let test_writer_patch () =
  let w = Wire.Writer.create () in
  Wire.Writer.u16 w 0;
  Wire.Writer.u32 w 42l;
  Wire.Writer.patch_u16 w ~pos:0 0xBEEF;
  Alcotest.(check int) "patched" 0xBEEF (Bytes.get_uint16_be (Wire.Writer.contents w) 0);
  Alcotest.check_raises "patch out of range"
    (Invalid_argument "Writer.patch_u16: out of range") (fun () ->
      Wire.Writer.patch_u16 w ~pos:5 1)

let test_reader_sub_and_truncation () =
  let r = Oracle.Wire_reader.of_bytes (Bytes.of_string "abcdefgh") in
  let sub = Oracle.Wire_reader.sub r 4 in
  Alcotest.(check int) "sub remaining" 4 (Oracle.Wire_reader.remaining sub);
  Alcotest.(check int) "parent advanced" 4 (Oracle.Wire_reader.remaining r);
  Oracle.Wire_reader.skip sub 4;
  Alcotest.check_raises "sub bounded" Oracle.Wire_reader.Truncated (fun () ->
      ignore (Oracle.Wire_reader.u8 sub))

let test_reader_bounds () =
  let r = Oracle.Wire_reader.of_bytes (Bytes.of_string "ab") in
  Alcotest.(check int) "u16 works" 0x6162 (Oracle.Wire_reader.u16 r);
  Alcotest.check_raises "past end" Oracle.Wire_reader.Truncated (fun () ->
      ignore (Oracle.Wire_reader.u8 r))

let test_reader_window () =
  let r = Oracle.Wire_reader.of_bytes ~pos:2 ~len:3 (Bytes.of_string "abcdefgh") in
  Alcotest.(check int) "remaining" 3 (Oracle.Wire_reader.remaining r);
  Alcotest.(check string) "window" "cde"
    (String.init 3 (fun _ -> Char.chr (Oracle.Wire_reader.u8 r)));
  Alcotest.check_raises "window bounded" Oracle.Wire_reader.Truncated (fun () ->
      ignore (Oracle.Wire_reader.u8 r))

(* --- pcap little-endian interop --- *)

let test_pcap_reads_little_endian () =
  (* Hand-build a little-endian pcap with one 60-byte packet, as a
     foreign tool might produce. *)
  let buf = Buffer.create 128 in
  let u32le v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))
  in
  let u16le v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))
  in
  u32le 0xD4C3B2A1;
  (* LE magic as written by a LE writer: bytes A1 B2 C3 D4 reversed *)
  Buffer.clear buf;
  (* Actually: a little-endian pcap stores magic 0xA1B2C3D4 in LE byte
     order, i.e. bytes D4 C3 B2 A1, which reads back as 0xD4C3B2A1 in
     big-endian. *)
  Buffer.add_string buf "\xd4\xc3\xb2\xa1";
  u16le 2;
  u16le 4;
  u32le 0;
  u32le 0;
  u32le 65535;
  u32le 1;
  u32le 7 (* ts sec *);
  u32le 0 (* ts usec *);
  u32le 60 (* incl *);
  u32le 60 (* orig *);
  Buffer.add_string buf (String.make 60 '\x00');
  let packets = Oracle.pcap_packets (Buffer.to_bytes buf) in
  Alcotest.(check int) "one packet" 1 (List.length packets);
  let p = List.hd packets in
  Alcotest.(check (float 1e-9)) "timestamp" 7.0 p.Oracle.ts;
  Alcotest.(check int) "length" 60 (Bytes.length p.Oracle.data)

(* --- Filter rendering --- *)

let test_filter_to_string_all_forms () =
  let cases =
    [
      Packet.Filter.Proto "tcp";
      Packet.Filter.Vlan None;
      Packet.Filter.Vlan (Some 7);
      Packet.Filter.Mpls (Some 1000);
      Packet.Filter.Host (Packet.Filter.Src, Ipv4_addr.of_string "10.0.0.1");
      Packet.Filter.Port (Packet.Filter.Dst, 443);
      Packet.Filter.Less 100;
      Packet.Filter.Greater 1500;
      Packet.Filter.Not (Packet.Filter.Proto "udp");
      Packet.Filter.And (Packet.Filter.Proto "tcp", Packet.Filter.Vlan (Some 1));
      Packet.Filter.Or (Packet.Filter.Proto "ipv4", Packet.Filter.Proto "ipv6");
    ]
  in
  List.iter
    (fun f ->
      let s = Packet.Filter.to_string f in
      match Packet.Filter.parse s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "unparseable rendering %S: %s" s msg)
    cases

(* --- Dist.mean --- *)

let test_dist_mean () =
  let check_mean d expected =
    match Dist.mean d with
    | Some m -> Alcotest.(check (float 1e-9)) "mean" expected m
    | None -> Alcotest.fail "expected a mean"
  in
  check_mean (Dist.Constant 5.0) 5.0;
  check_mean (Dist.Uniform (0.0, 10.0)) 5.0;
  check_mean (Dist.Exponential 3.0) 3.0;
  check_mean (Dist.Gaussian (7.0, 2.0)) 7.0;
  check_mean (Dist.Empirical [| (1.0, 10.0); (3.0, 20.0) |]) 17.5;
  check_mean (Dist.Mixture [ (0.5, Dist.Constant 0.0); (0.5, Dist.Constant 10.0) ]) 5.0;
  check_mean (Dist.Shifted (1.0, Dist.Constant 2.0)) 3.0;
  Alcotest.(check bool) "clamped has no closed form" true
    (Dist.mean (Dist.Clamped (0.0, 1.0, Dist.Constant 5.0)) = None);
  Alcotest.(check bool) "heavy pareto has no mean" true
    (Dist.mean (Dist.Pareto (0.9, 1.0)) = None)

let test_dist_mean_matches_sampling () =
  let rng = Rng.create 17 in
  let d = Dist.Mixture [ (0.7, Dist.Exponential 2.0); (0.3, Dist.Uniform (5.0, 15.0)) ] in
  let analytic = Option.get (Dist.mean d) in
  let empirical =
    let sum = ref 0.0 in
    for _ = 1 to 100_000 do
      sum := !sum +. Dist.sample d rng
    done;
    !sum /. 100_000.0
  in
  Alcotest.(check bool) "within 2%" true
    (Float.abs (empirical -. analytic) /. analytic < 0.02)

(* --- Instance behavior --- *)

let busy_fabric seed =
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create fabric ~seed in
  (engine, fabric, driver)

let first_site fabric =
  (List.hd (Testbed.Info_model.profilable_sites (Testbed.Fablib.model fabric)))
    .Testbed.Info_model.name

let make_instance ?(config = Patchwork.Config.default) ?(storage = 1e12)
    (engine, fabric, driver) =
  let site = first_site fabric in
  let downlinks = Testbed.Fablib.downlink_ports fabric ~site in
  let nic_port = List.nth downlinks (List.length downlinks - 1) in
  let candidates =
    Testbed.Fablib.uplink_ports fabric ~site
    @ List.filter (fun p -> p <> nic_port) downlinks
  in
  let log = Patchwork.Logging.create () in
  let inst =
    Patchwork.Instance.create ~fabric ~resolver:(Traffic.Driver.resolver driver)
      ~config ~log ~rng:(Rng.create 3) ~site ~instance_id:0 ~nic_port ~candidates
      ~storage_bytes:storage
  in
  ignore engine;
  (inst, log, site)

let test_instance_samples_and_cycles () =
  let ((engine, fabric, driver) as ctx) = busy_fabric 51 in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 2;
      max_frames_per_sample = 10;
    }
  in
  let inst, _, _ = make_instance ~config ctx in
  Testbed.Fablib.start_telemetry ~until:7200.0 fabric;
  Traffic.Driver.start driver ~until:7200.0;
  Patchwork.Instance.start inst ~until:7200.0;
  Simcore.Engine.run ~until:7200.0 engine;
  Alcotest.(check bool) "took samples" true
    (List.length (Patchwork.Instance.samples inst) >= 8);
  Alcotest.(check bool) "cycled ports" true
    (Patchwork.Instance.cycles_completed inst >= 2);
  (match Patchwork.Instance.status inst with
  | Patchwork.Instance.Finished | Patchwork.Instance.Running -> ()
  | Patchwork.Instance.Crashed m -> Alcotest.failf "unexpected crash: %s" m);
  (* No mirror sessions leak after cycling. *)
  let site = first_site fabric in
  Alcotest.(check bool) "at most one live mirror" true
    (Testbed.Switch.mirror_count (Testbed.Fablib.switch fabric ~site) <= 1)

let test_instance_watchdog_storage_crash () =
  let ((engine, fabric, driver) as ctx) = busy_fabric 52 in
  let config =
    { Patchwork.Config.default with Patchwork.Config.instance_crash_prob = 0.0 }
  in
  (* A 1-byte disk: the first non-empty sample kills it. *)
  let inst, log, _ = make_instance ~config ~storage:1.0 ctx in
  Testbed.Fablib.start_telemetry ~until:7200.0 fabric;
  Traffic.Driver.start driver ~until:7200.0;
  Patchwork.Instance.start inst ~until:7200.0;
  Simcore.Engine.run ~until:7200.0 engine;
  match Patchwork.Instance.status inst with
  | Patchwork.Instance.Crashed msg ->
    Alcotest.(check string) "storage exhaustion" "storage exhausted" msg;
    Alcotest.(check bool) "error logged" true
      (Patchwork.Logging.count ~min_level:Patchwork.Logging.Error log > 0)
  | Patchwork.Instance.Running | Patchwork.Instance.Finished ->
    Alcotest.fail "watchdog should have fired"

(* --- Capture thinning arithmetic --- *)

let test_capture_thinning_consistency () =
  (* materialized_fraction times offered should approximate the record
     count when the budget binds. *)
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:53 engine in
  let site = first_site fabric in
  let sw = Testbed.Fablib.switch fabric ~site in
  let template =
    [
      Packet.Headers.Ethernet
        { src = Mac.of_int64 0x020000000001L; dst = Mac.of_int64 0x020000000002L };
      Packet.Headers.Ipv4
        { src = Ipv4_addr.of_string "10.0.0.1"; dst = Ipv4_addr.of_string "10.0.0.2";
          dscp = 0; ttl = 64; ident = 0; dont_fragment = true };
      Packet.Headers.Udp { src_port = 1000; dst_port = 2000 };
    ]
  in
  let spec =
    Traffic.Flow_model.make ~flow_id:1 ~template
      ~frame_size:(Dist.Constant 1000.0) ~avg_frame_size:1000.0 ~byte_rate:5e7
      ~start_time:0.0 ~duration:1e6 ()
  in
  let d0 = List.hd (Testbed.Fablib.downlink_ports fabric ~site) in
  let d1 = List.nth (Testbed.Fablib.downlink_ports fabric ~site) 1 in
  Testbed.Switch.attach_flow sw ~port:d0 ~dir:Testbed.Switch.Rx ~byte_rate:5e7
    ~frame_rate:(Traffic.Flow_model.frame_rate spec) ~flow:1;
  let mirror =
    match
      Testbed.Switch.add_mirror sw ~src_port:d0 ~dirs:Testbed.Switch.Both ~dst_port:d1
    with
    | Ok id -> id
    | Error m -> failwith m
  in
  let config =
    { Patchwork.Config.default with Patchwork.Config.max_frames_per_sample = 500 }
  in
  let sample =
    Patchwork.Capture.run ~fabric
      ~resolver:(fun f -> if f = 1 then Some spec else None)
      ~config ~rng:(Rng.create 4) ~site ~mirror ~mirrored_port:d0
  in
  let loss = sample.Patchwork.Capture.stats.Patchwork.Capture.loss in
  (* Offered: 50k fps * 20s = 1M frames; budget 500. *)
  Alcotest.(check bool) "offered large" true
    (loss.Patchwork.Capture.b_offered_frames > 900_000.0);
  let expected_materialized =
    loss.Patchwork.Capture.b_offered_frames
    *. sample.Patchwork.Capture.materialized_fraction
  in
  let n = float_of_int (List.length sample.Patchwork.Capture.acaps) in
  Alcotest.(check bool) "thinning consistent (within poisson noise)" true
    (Float.abs (n -. expected_materialized) < 5.0 *. sqrt (expected_materialized +. 1.0));
  (* tcpdump cannot keep up with 50k fps?  It can (0.7 Mpps), so the
     only losses are at the materialization stage, which is not loss. *)
  Alcotest.(check (float 1.0)) "no host drops at 50kfps" 0.0
    loss.Patchwork.Capture.b_host_dropped

(* --- Headers misc --- *)

let test_header_sizes () =
  let module H = Packet.Headers in
  Alcotest.(check int) "eth" 14 (H.size (H.Ethernet { src = Mac.of_int64 0L; dst = Mac.of_int64 0L }));
  Alcotest.(check int) "vlan" 4 (H.size (H.Vlan { pcp = 0; dei = false; vid = 1 }));
  Alcotest.(check int) "ipv6" 40
    (H.size
       (H.Ipv6
          { src = Ipv6_addr.make 0L 0L; dst = Ipv6_addr.make 0L 0L;
            traffic_class = 0; flow_label = 0; hop_limit = 64 }));
  Alcotest.(check int) "ntp" 48 (H.size H.Ntp);
  Alcotest.(check int) "dns" 12 (H.size (H.Dns { query = true; id = 0 }))

let test_ethertype_errors () =
  let module H = Packet.Headers in
  Alcotest.(check bool) "tcp has no ethertype" true
    (try
       ignore
         (H.ethertype_for
            (H.Tcp
               { src_port = 1; dst_port = 2; seq = 0l; ack_seq = 0l;
                 flags = H.flags_none; window = 0 }));
       false
     with Invalid_argument _ -> true)

(* The service [Services.lookup_index] names, if any. *)
let service_lookup l4 ~src_port ~dst_port =
  let module S = Dissect.Services in
  match S.lookup_index l4 ~src_port ~dst_port with -1 -> None | i -> Some S.catalog.(i)

let test_services_lookup () =
  let module S = Dissect.Services in
  (match service_lookup S.Tcp ~src_port:44444 ~dst_port:3306 with
  | Some svc -> Alcotest.(check string) "mysql" "mysql" svc.S.service_name
  | None -> Alcotest.fail "expected mysql");
  (* Destination takes precedence over source. *)
  (match service_lookup S.Tcp ~src_port:80 ~dst_port:443 with
  | Some svc -> Alcotest.(check string) "dst first" "tls" svc.S.service_name
  | None -> Alcotest.fail "expected tls");
  Alcotest.(check bool) "udp/tcp distinguished" true
    (service_lookup S.Udp ~src_port:1 ~dst_port:80 = None);
  Alcotest.(check bool) "unknown port" true
    (service_lookup S.Tcp ~src_port:1 ~dst_port:2 = None)

(* Every port, for both kinds: as the destination alone (the source
   port 0 is in no entry), as the source alone, and paired with a
   catalog port, which takes precedence when it is the destination.
   Ports outside 0-65535 match nothing. *)
let test_services_lookup_oracle () =
  let module S = Dissect.Services in
  let name = Option.map (fun s -> s.S.service_name) in
  let agree l4 ~src_port ~dst_port =
    let got = service_lookup l4 ~src_port ~dst_port
    and want = Oracle.service_lookup l4 ~src_port ~dst_port in
    if got <> want then
      Alcotest.failf "lookup ~src_port:%d ~dst_port:%d: %s, the scan says %s" src_port
        dst_port
        (Option.value ~default:"-" (name got))
        (Option.value ~default:"-" (name want))
  in
  let n = Array.length S.catalog in
  List.iter
    (fun l4 ->
      for p = 0 to 0xFFFF do
        let q = S.catalog.(p mod n).S.port in
        agree l4 ~src_port:0 ~dst_port:p;
        agree l4 ~src_port:p ~dst_port:0;
        agree l4 ~src_port:p ~dst_port:q;
        agree l4 ~src_port:q ~dst_port:p
      done;
      List.iter
        (fun p ->
          agree l4 ~src_port:p ~dst_port:p;
          agree l4 ~src_port:p ~dst_port:443;
          agree l4 ~src_port:443 ~dst_port:p)
        [ -1; 0x10000; 0x10000 + 443; max_int; min_int ])
    [ S.Tcp; S.Udp ]

let suites =
  [
    ( "extra.wire",
      [
        Alcotest.test_case "writer growth" `Quick test_writer_growth;
        Alcotest.test_case "writer patch" `Quick test_writer_patch;
        Alcotest.test_case "reader sub" `Quick test_reader_sub_and_truncation;
        Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
        Alcotest.test_case "reader window" `Quick test_reader_window;
      ] );
    ( "extra.pcap",
      [ Alcotest.test_case "little-endian interop" `Quick test_pcap_reads_little_endian ] );
    ( "extra.filter",
      [ Alcotest.test_case "to_string all forms" `Quick test_filter_to_string_all_forms ] );
    ( "extra.dist",
      [
        Alcotest.test_case "analytic means" `Quick test_dist_mean;
        Alcotest.test_case "mean matches sampling" `Quick test_dist_mean_matches_sampling;
      ] );
    ( "extra.instance",
      [
        Alcotest.test_case "samples and cycles" `Slow test_instance_samples_and_cycles;
        Alcotest.test_case "watchdog storage crash" `Slow test_instance_watchdog_storage_crash;
      ] );
    ( "extra.capture",
      [ Alcotest.test_case "thinning arithmetic" `Quick test_capture_thinning_consistency ] );
    ( "extra.headers",
      [
        Alcotest.test_case "sizes" `Quick test_header_sizes;
        Alcotest.test_case "ethertype errors" `Quick test_ethertype_errors;
        Alcotest.test_case "service lookup" `Quick test_services_lookup;
        Alcotest.test_case "service lookup ≡ catalog scan" `Quick
          test_services_lookup_oracle;
      ] );
  ]
