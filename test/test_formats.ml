(* pcapng, NetFlow export, and the SVG chart layer. *)

module H = Packet.Headers

(* Whether an index entry's captured bytes in the buffer are exactly
   these. *)
let views buf (e : Oracle.entry) b =
  e.Oracle.cap_len = Bytes.length b && Bytes.sub buf e.Oracle.off e.Oracle.cap_len = b

let sample_frames n =
  let rng = Netcore.Rng.create 33 in
  List.init n (fun i ->
      (float_of_int i *. 0.001, Frame_gen.random_frame rng))

(* --- pcapng --- *)

let test_pcapng_roundtrip () =
  let frames = sample_frames 20 in
  let buf = Pcapng_writer.of_frames frames in
  Alcotest.(check bool) "detected as pcapng" true (Packet.Pcapng.is_pcapng buf);
  let packets = Oracle.pcapng_packets buf in
  Alcotest.(check int) "count" 20 (List.length packets);
  List.iter2
    (fun (ts, frame) (p : Oracle.packet) ->
      Alcotest.(check (float 2e-6)) "timestamp" ts p.Oracle.ts;
      Alcotest.(check bytes) "bytes" (Packet.Codec.encode frame) p.Oracle.data)
    frames packets

let test_pcapng_snaplen () =
  let frames = sample_frames 3 in
  let buf = Pcapng_writer.of_frames ~snaplen:60 frames in
  List.iter
    (fun (p : Oracle.packet) ->
      Alcotest.(check bool) "truncated" true (Bytes.length p.Oracle.data <= 60);
      Alcotest.(check bool) "orig preserved" true (p.Oracle.orig_len >= 60))
    (Oracle.pcapng_packets buf)

let test_pcapng_vs_pcap_dispatch () =
  let frames = sample_frames 5 in
  let ng = Pcapng_writer.of_frames frames in
  let classic =
    let w = Packet.Pcap.Writer.create () in
    List.iter (fun (ts, f) -> Oracle.add_frame w ~ts f) frames;
    Packet.Pcap.Writer.contents w
  in
  Alcotest.(check bool) "classic not pcapng" false (Packet.Pcapng.is_pcapng classic);
  Alcotest.(check int) "read_any classic" 5
    (List.length (Oracle.read_any classic));
  Alcotest.(check int) "read_any ng" 5 (List.length (Oracle.read_any ng))

let test_pcapng_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Oracle.pcapng_packets (Bytes.make 32 '\x42'));
       false
     with Packet.Pcapng.Malformed _ -> true)

let test_pcapng_digest_interop () =
  (* The analysis pipeline should digest pcapng transparently. *)
  let frames = sample_frames 10 in
  let buf = Pcapng_writer.of_frames frames in
  let acaps = Analysis.Digest.pcap_to_acaps buf in
  Alcotest.(check int) "digested" 10 (List.length acaps)

(* A packet of [frame]'s bytes at [ts]. *)
let packet_at ts frame =
  let data = Packet.Codec.encode frame in
  { Oracle.ts; orig_len = Bytes.length data; data }

(* An Enhanced Packet Block counts ticks of its interface's
   [if_tsresol]: 10^-9 s here.  Read as microseconds, 1.7e9 s came back
   near 1.7e12 s.  Each section declares its own interfaces, so a
   microsecond section after it reads in microseconds (the writer keeps
   the whole 123,456 us). *)
let test_pcapng_nanosecond_timestamps () =
  let ts = 1_700_000_000.123456789 in
  let p = packet_at ts (snd (List.hd (sample_frames 1))) in
  let buf = Bytes.cat (Pcapng_writer.write ~tsresol:9 [ p ]) (Pcapng_writer.write [ p ]) in
  Alcotest.(check (list (float 1e-6))) "index" [ ts; ts ]
    (List.map (fun (e : Oracle.entry) -> e.Oracle.ts) (Oracle.index buf));
  Alcotest.(check (list string)) "dissect lines' times" [ "1700000000.123457"; "1700000000.123456" ]
    (List.map
       (fun r -> List.hd (String.split_on_char '\t' (Dissect.Acap.to_line r)))
       (Analysis.Digest.pcap_to_acaps buf))

(* With its high bit set, [if_tsresol] is a power of two: 2^-10 s
   here, so these times survive exactly. *)
let test_pcapng_binary_timestamps () =
  let times = [ 0.0; 1.5; 2.25; 1000.0 +. (1.0 /. 1024.0) ] in
  let buf =
    Pcapng_writer.write ~tsresol:(0x80 lor 10)
      (List.map2 (fun ts (_, f) -> packet_at ts f) times (sample_frames 4))
  in
  Alcotest.(check (list (float 0.0))) "index" times
    (List.map (fun (e : Oracle.entry) -> e.Oracle.ts) (Oracle.index buf))

(* A timestamp on an interface its section never declared has no unit:
   the reader refuses it rather than guess the microsecond.  So does an
   interface whose [if_tsresol] is not one byte or whose option runs
   past its block. *)
let test_pcapng_rejects_undeclared_interface () =
  let whole = Pcapng_writer.of_frames (sample_frames 1) in
  (* The EPB (SHB 28 bytes, IDB 20) names interface 1 of one. *)
  let second = Bytes.copy whole in
  Bytes.set_int32_be second (48 + 8) 1l;
  Alcotest.check_raises "interface 1 of 1"
    (Packet.Pcapng.Malformed "packet on undeclared interface 1") (fun () ->
      ignore (Oracle.index second));
  (* A second section that declares no interface: its SHB, then the
     first section's EPB. *)
  let next_section =
    Bytes.concat Bytes.empty
      [ whole; Bytes.sub whole 0 28; Bytes.sub whole 48 (Bytes.length whole - 48) ]
  in
  Alcotest.check_raises "interface 0 of a new section"
    (Packet.Pcapng.Malformed "packet on undeclared interface 0") (fun () ->
      ignore (Analysis.Digest.pcap_to_acaps next_section));
  (* With [tsresol] the IDB's options start at 44: if_name's code and
     length, its 5 bytes padded to 8, then if_tsresol's code at 56 and
     its length at 58. *)
  let with_option len =
    let buf =
      Pcapng_writer.write ~tsresol:9
        (List.map (fun (ts, f) -> packet_at ts f) (sample_frames 1))
    in
    Bytes.set_uint16_be buf 58 len;
    buf
  in
  Alcotest.check_raises "two-byte if_tsresol"
    (Packet.Pcapng.Malformed "if_tsresol is not one byte") (fun () ->
      ignore (Oracle.index (with_option 2)));
  Alcotest.check_raises "option past its block"
    (Packet.Pcapng.Malformed "option overruns its block") (fun () ->
      ignore (Analysis.Profile.of_pcap (with_option 100)))

let qcheck_pcapng_roundtrip =
  QCheck.Test.make ~name:"pcapng roundtrip preserves frames" ~count:100
    (Frame_gen.frame_arb ()) (fun f ->
      let buf = Pcapng_writer.of_frames [ (1.5, f) ] in
      match Oracle.pcapng_packets buf with
      | [ p ] -> Bytes.equal p.Oracle.data (Packet.Codec.encode f)
      | _ -> false)

(* --- classic pcap writer edge cases --- *)

let test_pcap_usec_carry () =
  (* Rounding ts to the nearest microsecond can land on usec = 1_000_000
     (ts infinitesimally below a whole second); the writer must carry
     into the seconds field instead of emitting an out-of-range value. *)
  let w = Packet.Pcap.Writer.create () in
  let data = Bytes.make 60 '\x2a' in
  Packet.Pcap.Writer.add w ~ts:(Float.pred 2.0) data;
  Packet.Pcap.Writer.add w ~ts:1.2345678 data;
  let buf = Packet.Pcap.Writer.contents w in
  (* Inspect the raw record header (first record starts right after the
     24-byte global header): sec, then usec. *)
  let u32 off = Int32.to_int (Bytes.get_int32_be buf off) in
  Alcotest.(check int) "sec carried" 2 (u32 24);
  Alcotest.(check int) "usec wrapped to zero" 0 (u32 28);
  match Oracle.pcap_packets buf with
  | [ p0; p1 ] ->
    Alcotest.(check (float 0.0)) "carried ts roundtrip" 2.0 p0.Oracle.ts;
    (* 0.2345678 rounds to 234568us; truncation would give 234567. *)
    Alcotest.(check (float 5e-7)) "nearest-us rounding" 1.2345678
      p1.Oracle.ts
  | _ -> Alcotest.fail "expected two packets"

let test_pcap_incl_len_capped () =
  (* The pcap spec requires incl_len <= orig_len: a caller claiming fewer
     original bytes than it supplies gets the excess dropped. *)
  let w = Packet.Pcap.Writer.create () in
  let data = Bytes.init 100 Char.chr in
  Packet.Pcap.Writer.add w ~ts:0.5 ~orig_len:64 data;
  (match Oracle.pcap_packets (Packet.Pcap.Writer.contents w) with
  | [ p ] ->
    Alcotest.(check int) "orig_len" 64 p.Oracle.orig_len;
    Alcotest.(check int) "incl_len capped" 64 (Bytes.length p.Oracle.data);
    Alcotest.(check bytes) "prefix preserved" (Bytes.sub data 0 64)
      p.Oracle.data
  | _ -> Alcotest.fail "expected one packet");
  Alcotest.(check bool) "negative orig_len rejected" true
    (try
       Packet.Pcap.Writer.add w ~ts:0.5 ~orig_len:(-1) data;
       false
     with Invalid_argument _ -> true)

(* --- NetFlow --- *)

let iperf_template ~vlan ~src ~dst =
  [
    H.Ethernet
      { src = Netcore.Mac.of_int64 0x020000000001L;
        dst = Netcore.Mac.of_int64 0x020000000002L };
    H.Vlan { pcp = 0; dei = false; vid = vlan };
    H.Ipv4
      { src = Netcore.Ipv4_addr.of_string src;
        dst = Netcore.Ipv4_addr.of_string dst;
        dscp = 0; ttl = 64; ident = 0; dont_fragment = true };
    H.Tcp
      { src_port = 41000; dst_port = 5201; seq = 0l; ack_seq = 0l;
        flags = H.flags_psh_ack; window = 512 };
  ]

let flow ~flow_id ~vlan ?(src = "10.0.1.10") ?(dst = "10.0.1.20") () =
  Traffic.Flow_model.make ~flow_id ~template:(iperf_template ~vlan ~src ~dst)
    ~frame_size:(Netcore.Dist.Constant 1000.0) ~avg_frame_size:1000.0
    ~byte_rate:1e6 ~start_time:0.0 ~duration:100.0 ()

let netflow_setup flows =
  let engine = Simcore.Engine.create () in
  let sw = Testbed.Switch.create engine ~site_name:"NF" ~ports:2 ~line_rate:100e9 in
  List.iter
    (fun (spec : Traffic.Flow_model.spec) ->
      Testbed.Switch.attach_flow sw ~port:0 ~dir:Testbed.Switch.Rx
        ~byte_rate:spec.Traffic.Flow_model.byte_rate
        ~frame_rate:(Traffic.Flow_model.frame_rate spec)
        ~flow:spec.Traffic.Flow_model.flow_id)
    flows;
  let resolver id =
    List.find_opt
      (fun (s : Traffic.Flow_model.spec) -> s.Traffic.Flow_model.flow_id = id)
      flows
  in
  (sw, resolver)

let test_netflow_merges_slices () =
  let a = flow ~flow_id:1 ~vlan:100 () and b = flow ~flow_id:2 ~vlan:200 () in
  let sw, resolver = netflow_setup [ a; b ] in
  let records =
    Traffic.Netflow.export ~resolver sw ~port:0 ~start_time:0.0 ~end_time:10.0
  in
  Alcotest.(check int) "two slices, one record" 1 (List.length records);
  let r = List.hd records in
  (* Bytes from both slices are conflated. *)
  Alcotest.(check (float 1.0)) "merged bytes" 2e7 r.Traffic.Netflow.nf_bytes

let test_netflow_separates_real_tuples () =
  let a = flow ~flow_id:1 ~vlan:100 () in
  let b = flow ~flow_id:2 ~vlan:100 ~dst:"10.0.1.30" () in
  let sw, resolver = netflow_setup [ a; b ] in
  let records =
    Traffic.Netflow.export ~resolver sw ~port:0 ~start_time:0.0 ~end_time:10.0
  in
  Alcotest.(check int) "different tuples kept apart" 2 (List.length records)

let test_netflow_window_clipping () =
  let a = flow ~flow_id:1 ~vlan:100 () in
  let sw, resolver = netflow_setup [ a ] in
  match Traffic.Netflow.export ~resolver sw ~port:0 ~start_time:90.0 ~end_time:200.0 with
  | [ r ] ->
    (* Flow ends at t=100: only 10s overlap. *)
    Alcotest.(check (float 1.0)) "clipped bytes" 1e7 r.Traffic.Netflow.nf_bytes;
    Alcotest.(check (float 1e-9)) "last" 100.0 r.Traffic.Netflow.nf_last
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

let test_netflow_empty_window () =
  let a = flow ~flow_id:1 ~vlan:100 () in
  let sw, resolver = netflow_setup [ a ] in
  Alcotest.(check int) "no overlap, no records" 0
    (List.length
       (Traffic.Netflow.export ~resolver sw ~port:0 ~start_time:200.0 ~end_time:300.0))

(* --- SVG / charts --- *)

let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_svg_document_structure () =
  let svg = Analysis.Svg.create ~width:100.0 ~height:50.0 in
  Analysis.Svg.rect svg ~x:1.0 ~y:2.0 ~w:3.0 ~h:4.0 ();
  Analysis.Svg.text svg ~x:5.0 ~y:6.0 "hello <world> & \"friends\"";
  let s = Analysis.Svg.to_string svg in
  Alcotest.(check bool) "xml decl" true (String.length s > 0 && s.[0] = '<');
  Alcotest.(check int) "one closing svg" 1 (count_substring s "</svg>");
  Alcotest.(check bool) "escaped" true
    (count_substring s "&lt;world&gt; &amp; &quot;friends&quot;" = 1);
  Alcotest.(check bool) "no raw angle" true (count_substring s "<world>" = 0)

let test_bar_chart_elements () =
  let svg =
    Analysis.Charts.bar_chart ~title:"t" ~x_axis:"x"
      ~y_axis:{ Analysis.Charts.label = "y"; log = false }
      [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
  in
  let s = Analysis.Svg.to_string svg in
  (* Background + 3 bars. *)
  Alcotest.(check int) "rects" 4 (count_substring s "<rect");
  Alcotest.(check bool) "title present" true (count_substring s ">t</text>" = 1)

let test_line_chart_series () =
  let svg =
    Analysis.Charts.line_chart ~title:"lines" ~x_axis:"x"
      ~y_axis:{ Analysis.Charts.label = "y"; log = false }
      [ ("s1", [ (0.0, 1.0); (1.0, 2.0) ]); ("s2", [ (0.0, 2.0); (1.0, 1.0) ]) ]
  in
  let s = Analysis.Svg.to_string svg in
  Alcotest.(check int) "two polylines" 2 (count_substring s "<polyline");
  Alcotest.(check bool) "legend" true (count_substring s ">s1</text>" = 1)

let test_stacked_chart_heights () =
  let svg =
    Analysis.Charts.stacked_bar_chart ~title:"s" ~x_axis:"x"
      ~y_axis:{ Analysis.Charts.label = "y"; log = false }
      ~series:[ "p"; "q" ]
      [ ("a", [ 1.0; 2.0 ]) ]
  in
  let s = Analysis.Svg.to_string svg in
  (* Background + legend boxes (2) + 2 stacked segments. *)
  Alcotest.(check int) "rects" 5 (count_substring s "<rect")

let test_log_axis_chart () =
  let svg =
    Analysis.Charts.bar_chart ~title:"log" ~x_axis:"x"
      ~y_axis:{ Analysis.Charts.label = "y"; log = true }
      [ ("a", 5.0); ("b", 5000.0) ]
  in
  let s = Analysis.Svg.to_string svg in
  Alcotest.(check bool) "rendered" true (count_substring s "<rect" >= 3)

let test_profile_figures_written () =
  (* A tiny synthetic profile via the builder API is enough to exercise
     every chart path. *)
  let dir = Filename.temp_file "patchwork_figs" "" in
  Sys.remove dir;
  let b = Analysis.Profile.Builder.create () in
  let profile = Analysis.Profile.Builder.finish b in
  let files = Analysis.Figures.write_profile_figures profile ~dir in
  Alcotest.(check bool) "several figures" true (List.length files >= 5);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists path);
      Sys.remove path)
    files;
  Sys.rmdir dir

let suites =
  [
    ( "formats.pcapng",
      [
        Alcotest.test_case "roundtrip" `Quick test_pcapng_roundtrip;
        Alcotest.test_case "snaplen" `Quick test_pcapng_snaplen;
        Alcotest.test_case "format dispatch" `Quick test_pcapng_vs_pcap_dispatch;
        Alcotest.test_case "rejects garbage" `Quick test_pcapng_rejects_garbage;
        Alcotest.test_case "digest interop" `Quick test_pcapng_digest_interop;
        Alcotest.test_case "nanosecond timestamps" `Quick test_pcapng_nanosecond_timestamps;
        Alcotest.test_case "binary-fraction timestamps" `Quick test_pcapng_binary_timestamps;
        Alcotest.test_case "rejects an undeclared interface" `Quick
          test_pcapng_rejects_undeclared_interface;
        QCheck_alcotest.to_alcotest qcheck_pcapng_roundtrip;
      ] );
    ( "formats.pcap",
      [
        Alcotest.test_case "usec carry at whole second" `Quick
          test_pcap_usec_carry;
        Alcotest.test_case "incl_len capped at orig_len" `Quick
          test_pcap_incl_len_capped;
      ] );
    ( "formats.netflow",
      [
        Alcotest.test_case "merges slices" `Quick test_netflow_merges_slices;
        Alcotest.test_case "separates real tuples" `Quick test_netflow_separates_real_tuples;
        Alcotest.test_case "window clipping" `Quick test_netflow_window_clipping;
        Alcotest.test_case "empty window" `Quick test_netflow_empty_window;
      ] );
    ( "formats.svg",
      [
        Alcotest.test_case "document structure" `Quick test_svg_document_structure;
        Alcotest.test_case "bar chart" `Quick test_bar_chart_elements;
        Alcotest.test_case "line chart" `Quick test_line_chart_series;
        Alcotest.test_case "stacked chart" `Quick test_stacked_chart_heights;
        Alcotest.test_case "log axis" `Quick test_log_axis_chart;
        Alcotest.test_case "profile figures" `Quick test_profile_figures_written;
      ] );
  ]

(* Cross-cutting property: anonymization composes with the codec
   round-trip. *)

let qcheck_anonymize_roundtrip =
  QCheck.Test.make ~name:"anonymized frames re-dissect with identical stacks"
    ~count:200 (Frame_gen.frame_arb ()) (fun f ->
      let anon = Hostmodel.Anonymize.create ~key:77 in
      let f' = Hostmodel.Anonymize.frame anon f in
      let d = Test_dissect.dissect_bytes (Packet.Codec.encode f') in
      List.map Packet.Headers.name d.Dissect.Dissector.headers
      = List.map Packet.Headers.name f.Packet.Frame.headers)

let suites =
  suites
  @ [
      ( "formats.properties",
        [
          QCheck_alcotest.to_alcotest qcheck_anonymize_roundtrip;
        ] );
    ]

(* NetFlow conservation: however flows merge, total exported bytes must
   equal the sum of per-flow bytes in the window. *)
let qcheck_netflow_conservation =
  QCheck.Test.make ~name:"netflow export conserves bytes" ~count:100
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n_flows) ->
      let rng = Netcore.Rng.create seed in
      let flows =
        List.init n_flows (fun i ->
            flow ~flow_id:i
              ~vlan:(100 + Netcore.Rng.int rng 5)
              ~dst:(Printf.sprintf "10.0.1.%d" (20 + Netcore.Rng.int rng 3))
              ())
      in
      let sw, resolver = netflow_setup flows in
      let t0 = Netcore.Rng.float rng *. 50.0 in
      let t1 = t0 +. (Netcore.Rng.float rng *. 100.0) in
      let records =
        Traffic.Netflow.export ~resolver sw ~port:0 ~start_time:t0 ~end_time:t1
      in
      let exported =
        List.fold_left (fun acc r -> acc +. r.Traffic.Netflow.nf_bytes) 0.0 records
      in
      let expected =
        List.fold_left
          (fun acc (s : Traffic.Flow_model.spec) ->
            let lo = Float.max t0 s.Traffic.Flow_model.start_time in
            let hi = Float.min t1 (Traffic.Flow_model.end_time s) in
            if hi > lo then acc +. (s.Traffic.Flow_model.byte_rate *. (hi -. lo))
            else acc)
          0.0 flows
      in
      Float.abs (exported -. expected) < 1e-6 *. Float.max 1.0 expected)

let test_cdf_and_histogram_charts_render () =
  let cdf =
    Analysis.Charts.cdf_chart ~title:"cdf" ~x_axis:"hours"
      [ (1.0, 0.1); (10.0, 0.5); (100.0, 1.0) ]
  in
  let s = Analysis.Svg.to_string cdf in
  Alcotest.(check bool) "cdf polyline" true (count_substring s "<polyline" = 1);
  Alcotest.(check bool) "cdf markers" true (count_substring s "<circle" = 3);
  let h = Netcore.Histogram.create [| 10.0; 100.0 |] in
  Netcore.Histogram.add h 5.0;
  Netcore.Histogram.add h 50.0;
  let hist = Analysis.Charts.histogram_chart ~title:"h" ~x_axis:"size" h in
  Alcotest.(check bool) "histogram bars" true
    (count_substring (Analysis.Svg.to_string hist) "<rect" >= 4)

let suites =
  suites
  @ [
      ( "formats.more",
        [
          QCheck_alcotest.to_alcotest qcheck_netflow_conservation;
          Alcotest.test_case "cdf and histogram charts" `Quick
            test_cdf_and_histogram_charts_render;
        ] );
    ]

(* --- indexed decode and zero-copy slices --- *)

let expect_pcap_malformed name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Packet.Pcap.Reader.Malformed _ -> true)

let test_pcap_index_matches_packets () =
  let frames = sample_frames 12 in
  let w = Packet.Pcap.Writer.create () in
  List.iter (fun (ts, f) -> Oracle.add_frame w ~ts f) frames;
  let buf = Packet.Pcap.Writer.contents w in
  let idx = Oracle.index buf in
  let packets = Oracle.pcap_packets buf in
  Alcotest.(check int) "entry per record" (List.length packets) (List.length idx);
  List.iter2
    (fun (p : Oracle.packet) (e : Oracle.entry) ->
      Alcotest.(check (float 0.0)) "ts" p.Oracle.ts e.Oracle.ts;
      Alcotest.(check int) "orig_len" p.Oracle.orig_len e.Oracle.orig_len;
      Alcotest.(check bool) "entry views the record bytes" true (views buf e p.Oracle.data))
    packets idx

(* A hand-built record appended after the 24-byte global header; fields
   are big-endian, matching Writer's byte order. *)
let pcap_with_raw_record ?(snaplen = 65535) ~sec ~usec ~incl ~orig data =
  let w = Packet.Pcap.Writer.create ~snaplen () in
  let b = Buffer.create 64 in
  Buffer.add_bytes b (Packet.Pcap.Writer.contents w);
  List.iter (Buffer.add_int32_be b) [ sec; usec; incl; orig ];
  Buffer.add_bytes b data;
  Buffer.to_bytes b

let test_pcap_rejects_top_bit_fields () =
  (* A top bit set in any record-header field is a corrupt capture;
     masking it would wrap a huge length into a small bogus one and
     desynchronize the walk. *)
  let data = Bytes.make 8 '\x00' in
  expect_pcap_malformed "incl_len top bit" (fun () ->
      Oracle.index
        (pcap_with_raw_record ~sec:1l ~usec:0l ~incl:0x80000008l ~orig:8l data));
  expect_pcap_malformed "timestamp top bit" (fun () ->
      Oracle.index
        (pcap_with_raw_record ~sec:0xFFFFFFFFl ~usec:0l ~incl:8l ~orig:8l data))

let test_pcap_rejects_incl_over_snaplen () =
  (* incl_len larger than the file's declared snaplen cannot have been
     produced by the capture that wrote the header. *)
  let data = Bytes.make 200 '\x2a' in
  expect_pcap_malformed "incl_len > snaplen" (fun () ->
      Oracle.index
        (pcap_with_raw_record ~snaplen:100 ~sec:1l ~usec:0l ~incl:200l ~orig:200l
           data))

let test_pcap_rejects_truncated_data () =
  let data = Bytes.make 10 '\x2a' in
  expect_pcap_malformed "record data cut short" (fun () ->
      Oracle.index
        (pcap_with_raw_record ~sec:1l ~usec:0l ~incl:50l ~orig:50l data))

(* A little-endian classic pcap, byte-for-byte what a LE host's libpcap
   writes (our Writer is BE-only, so this is built by hand). *)
let le_pcap ?(snaplen = 65535) records =
  let b = Buffer.create 256 in
  let u32 v = Buffer.add_int32_le b v in
  let u32i v = u32 (Int32.of_int v) in
  let u16 v = Buffer.add_uint16_le b v in
  u32 0xA1B2C3D4l;
  u16 2;
  u16 4;
  u32 0l;
  u32 0l;
  u32i snaplen;
  u32 1l;
  List.iter
    (fun (sec, usec, data) ->
      u32i sec;
      u32i usec;
      u32i (Bytes.length data);
      u32i (Bytes.length data);
      Buffer.add_bytes b data)
    records;
  Buffer.to_bytes b

(* A little-endian pcapng section (SHB + IDB + one EPB per packet); the
   reader must pick the byte order up from the section header magic. *)
let le_pcapng ?(snaplen = 65535) packets =
  let b = Buffer.create 256 in
  let u32 v = Buffer.add_int32_le b v in
  let u32i v = u32 (Int32.of_int v) in
  let u16 v = Buffer.add_uint16_le b v in
  let block btype body_len emit =
    let pad = (4 - (body_len land 3)) land 3 in
    let total = 12 + body_len + pad in
    u32 btype;
    u32i total;
    emit ();
    for _ = 1 to pad do
      Buffer.add_char b '\x00'
    done;
    u32i total
  in
  block 0x0A0D0D0Al 16 (fun () ->
      u32 0x1A2B3C4Dl;
      u16 1;
      u16 0;
      u32 0xFFFFFFFFl;
      u32 0xFFFFFFFFl);
  block 1l 8 (fun () ->
      u16 1;
      u16 0;
      u32i snaplen);
  List.iter
    (fun (p : Oracle.packet) ->
      let data = p.Oracle.data in
      let incl = Bytes.length data in
      let usec = Int64.of_float (p.Oracle.ts *. 1e6) in
      block 6l (20 + incl) (fun () ->
          u32 0l;
          u32i (Int64.to_int (Int64.shift_right_logical usec 32));
          u32 (Int64.to_int32 usec);
          u32i incl;
          u32i p.Oracle.orig_len;
          Buffer.add_bytes b data))
    packets;
  Buffer.to_bytes b

let be_packets frames = List.map (fun (ts, f) -> packet_at ts f) frames

let test_le_pcap_slice_path () =
  let frames = sample_frames 6 in
  let records =
    List.map
      (fun (ts, f) ->
        (int_of_float ts, int_of_float (Float.round (ts *. 1e6)) mod 1_000_000,
         Packet.Codec.encode f))
      frames
  in
  let buf = le_pcap records in
  let idx = Oracle.index buf in
  Alcotest.(check int) "LE pcap indexed" 6 (List.length idx);
  List.iter2
    (fun (_, _, data) e ->
      Alcotest.(check bool) "LE record bytes" true (views buf e data))
    records idx;
  (* The digest path must read LE captures identically to BE ones. *)
  let be =
    let w = Packet.Pcap.Writer.create () in
    List.iter (fun (ts, f) -> Oracle.add_frame w ~ts f) frames;
    Packet.Pcap.Writer.contents w
  in
  let strip_ts (r : Dissect.Acap.record) =
    Dissect.Acap.stamp r ~ts:0.0 ~orig_len:r.Dissect.Acap.orig_len
      ~cap_len:r.Dissect.Acap.cap_len
  in
  Alcotest.(check int) "LE digest equals BE digest" 0
    (compare
       (List.map strip_ts (Analysis.Digest.pcap_to_acaps buf))
       (List.map strip_ts (Analysis.Digest.pcap_to_acaps be)))

let test_le_pcapng_slice_path () =
  let frames = sample_frames 6 in
  let packets = be_packets frames in
  let le = le_pcapng packets in
  let be = Pcapng_writer.write packets in
  Alcotest.(check bool) "detected as pcapng" true (Packet.Pcapng.is_pcapng le);
  let idx = Oracle.index le in
  Alcotest.(check int) "LE pcapng indexed" 6 (List.length idx);
  List.iter2
    (fun (p : Oracle.packet) e ->
      Alcotest.(check bool) "LE record bytes" true (views le e p.Oracle.data))
    packets idx;
  Alcotest.(check int) "LE digest equals BE digest" 0
    (compare (Analysis.Digest.pcap_to_acaps le) (Analysis.Digest.pcap_to_acaps be))

let test_pcapng_snaplen_slice_path () =
  let frames = sample_frames 5 in
  let buf = Pcapng_writer.of_frames ~snaplen:60 frames in
  List.iter
    (fun (e : Oracle.entry) ->
      Alcotest.(check bool) "capped at snaplen" true (e.Oracle.cap_len <= 60))
    (Oracle.index buf);
  List.iter
    (fun (r : Dissect.Acap.record) ->
      Alcotest.(check bool) "snap marked truncated" true
        (r.Dissect.Acap.cap_len >= r.Dissect.Acap.orig_len || r.Dissect.Acap.truncated))
    (Analysis.Digest.pcap_to_acaps buf);
  (* The digest must agree with the copying path on capped records. *)
  Alcotest.(check int) "digest equals copied on capped capture" 0
    (compare (Analysis.Digest.pcap_to_acaps buf)
       (Oracle.acaps_copying buf))

let test_pcapng_rejects_truncated_epb () =
  let frames = sample_frames 1 in
  let buf = Pcapng_writer.of_frames frames in
  (* Find the EPB (third block: SHB 28 bytes, IDB 20 bytes) and inflate
     its captured-length field past the block's extent. *)
  let epb = 48 in
  Bytes.set_int32_be buf (epb + 8 + 12) 0x7FFF0000l;
  Alcotest.(check bool) "truncated EPB rejected" true
    (try
       ignore (Oracle.index buf);
       false
     with Packet.Pcapng.Malformed _ -> true)

(* A Simple Packet Block of total length 12 has no room for its
   original-length field; read as one, the trailing length gave a record
   of -4 captured bytes, which the decode then refused with an error no
   decoder declares.  The digest and the profile of such a capture must
   raise [Malformed] instead. *)
let test_pcapng_rejects_short_spb () =
  let b = Buffer.create 256 in
  Buffer.add_bytes b (Pcapng_writer.of_frames (sample_frames 1));
  List.iter (Buffer.add_int32_be b) [ 3l; 12l; 12l ];
  let buf = Buffer.to_bytes b in
  let short = Packet.Pcapng.Malformed "simple packet block shorter than 16 bytes" in
  Alcotest.check_raises "index" short (fun () -> ignore (Oracle.index buf));
  Alcotest.check_raises "profile" short (fun () -> ignore (Analysis.Profile.of_pcap buf));
  Alcotest.check_raises "records" short (fun () ->
      ignore (Analysis.Digest.pcap_to_acaps buf))

(* A captured length with its top bit set is a corrupt capture, as the
   classic reader says; masking the bit read 0x80000000 as an empty
   packet. *)
let test_pcapng_rejects_top_bit_length () =
  let buf = Pcapng_writer.of_frames (sample_frames 1) in
  (* The EPB is the third block (SHB 28 bytes, IDB 20 bytes). *)
  Bytes.set_int32_be buf (48 + 8 + 12) 0x80000000l;
  let out_of_range = Packet.Pcapng.Malformed "field out of range: 0x80000000" in
  Alcotest.check_raises "index" out_of_range (fun () -> ignore (Oracle.index buf));
  Alcotest.check_raises "profile" out_of_range (fun () ->
      ignore (Analysis.Profile.of_pcap buf))

(* A stream cut inside a block header: 1 to 11 bytes after the last
   block cannot hold one, as 1 to 15 after a classic pcap's last record
   cannot hold its header.  The walk used to stop there and fold the
   packets before it as if the stream had ended. *)
let test_pcapng_rejects_cut_block_header () =
  let whole = Pcapng_writer.of_frames (sample_frames 1) in
  List.iter
    (fun n ->
      (* The first [n] bytes of the EPB's header (SHB 28 bytes, IDB 20). *)
      let buf = Bytes.cat whole (Bytes.sub whole 48 n) in
      let cut = Packet.Pcapng.Malformed "truncated block header" in
      Alcotest.check_raises (Printf.sprintf "index, %d bytes" n) cut (fun () ->
          ignore (Oracle.index buf));
      Alcotest.check_raises (Printf.sprintf "records, %d bytes" n) cut (fun () ->
          ignore (Analysis.Digest.pcap_to_acaps buf));
      Alcotest.check_raises (Printf.sprintf "profile, %d bytes" n) cut (fun () ->
          ignore (Analysis.Profile.of_pcap buf)))
    [ 4; 8; 11 ]

let suites =
  suites
  @ [
      ( "formats.slice",
        [
          Alcotest.test_case "pcap index matches packets" `Quick
            test_pcap_index_matches_packets;
          Alcotest.test_case "pcap rejects top-bit fields" `Quick
            test_pcap_rejects_top_bit_fields;
          Alcotest.test_case "pcap rejects incl_len > snaplen" `Quick
            test_pcap_rejects_incl_over_snaplen;
          Alcotest.test_case "pcap rejects truncated data" `Quick
            test_pcap_rejects_truncated_data;
          Alcotest.test_case "little-endian pcap slice path" `Quick
            test_le_pcap_slice_path;
          Alcotest.test_case "little-endian pcapng slice path" `Quick
            test_le_pcapng_slice_path;
          Alcotest.test_case "snaplen-capped slice path" `Quick
            test_pcapng_snaplen_slice_path;
          Alcotest.test_case "pcapng rejects truncated EPB" `Quick
            test_pcapng_rejects_truncated_epb;
          Alcotest.test_case "pcapng rejects short SPB" `Quick
            test_pcapng_rejects_short_spb;
          Alcotest.test_case "pcapng rejects top-bit lengths" `Quick
            test_pcapng_rejects_top_bit_length;
          Alcotest.test_case "pcapng rejects a cut block header" `Quick
            test_pcapng_rejects_cut_block_header;
        ] );
    ]
