module Acap = Dissect.Acap
module Profile = Analysis.Profile
module Flows = Analysis.Flows
module Report = Analysis.Report
module Digest = Analysis.Digest
module H = Packet.Headers

(* Handy record builder. *)
let record ?(ts = 0.0) ?(len = 100) ?(stack = [ "eth"; "ipv4"; "tcp" ])
    ?(vlans = [ 1 ]) ?(mpls = []) ?(src = Some "10.0.0.1") ?(dst = Some "10.0.0.2")
    ?(l4 = Some (1000, 2000)) ?(rst = false) () =
  Acap.make ~ts ~orig_len:len ~cap_len:(min len 200) ~stack ~vlan_ids:vlans
    ~mpls_labels:mpls ~src ~dst ~l4 ~tcp_rst:rst ~truncated:(len > 200)

(* --- Analyze: one record list's profile --- *)

let occurrence records = (Profile.of_records records).Profile.occurrence

let test_occurrence_with_multiplicity () =
  (* Nested Ethernet counts twice per frame, pushing eth above 100%. *)
  let records =
    [ record ~stack:[ "eth"; "mpls"; "pw"; "eth"; "ipv4"; "tcp" ] ();
      record ~stack:[ "eth"; "ipv4"; "udp" ] () ]
  in
  let occ = occurrence records in
  Alcotest.(check (float 1e-9)) "eth 150%" 150.0 (Profile.occurrence_of occ "eth");
  Alcotest.(check (float 1e-9)) "ipv4 100%" 100.0 (Profile.occurrence_of occ "ipv4");
  Alcotest.(check (float 1e-9)) "udp 50%" 50.0 (Profile.occurrence_of occ "udp");
  Alcotest.(check (float 1e-9)) "missing 0%" 0.0 (Profile.occurrence_of occ "nope")

let test_occurrence_sorted_descending () =
  let occ =
    occurrence [ record ~stack:[ "eth"; "ipv4" ] (); record ~stack:[ "eth" ] () ]
  in
  match occ with
  | (first, _) :: _ -> Alcotest.(check string) "eth first" "eth" first
  | [] -> Alcotest.fail "empty"

(* Every token of one stack is at 100%; the table lists them by token
   whatever order the hash table holds them in. *)
let test_occurrence_ties_by_token () =
  let stack = [ "eth"; "vlan"; "ipv4"; "tcp"; "tls"; "http"; "dns"; "udp" ] in
  let occ = occurrence [ record ~stack () ] in
  Alcotest.(check (list (pair string (float 1e-9))))
    "tied tokens sorted"
    (List.map (fun t -> (t, 100.0)) (List.sort compare stack))
    occ

let test_frame_size_histogram_bins () =
  let records = [ record ~len:70 (); record ~len:1600 (); record ~len:9000 () ] in
  let h = (Profile.of_records records).Profile.size_histogram in
  (* Bins: <64, [64,128), [128,256), [256,512), [512,1024), [1024,1519),
     [1519,2048), [2048,9000), >=9000. *)
  let counts = Netcore.Histogram.counts h in
  Alcotest.(check int) "small frame bin" 1 counts.(1);
  Alcotest.(check int) "1519-2047 bin" 1 counts.(6);
  Alcotest.(check int) "jumbo 9000" 1 counts.(8)

let test_jumbo_fraction () =
  let records = [ record ~len:1518 (); record ~len:1519 (); record ~len:2000 () ] in
  let jumbo records = (Profile.of_records records).Profile.jumbo_fraction in
  Alcotest.(check (float 1e-9)) "2 of 3" (2.0 /. 3.0) (jumbo records);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (jumbo [])

let test_observed_flows () =
  let records =
    [ record ~l4:(Some (1, 2)) (); record ~l4:(Some (1, 2)) ();
      record ~l4:(Some (3, 4)) (); record ~src:None ~dst:None ~l4:None () ]
  in
  Alcotest.(check int) "two flows" 2
    (List.length (Profile.of_records records).Profile.flow_summaries)

let test_ipv6_rst_percent () =
  let records =
    [ record ~stack:[ "eth"; "ipv6"; "tcp" ] (); record (); record ~rst:true () ]
  in
  Alcotest.(check (float 1e-6)) "ipv6 1/3" (100.0 /. 3.0)
    (Profile.of_records records).Profile.ipv6_percent

(* --- Flows --- *)

let test_flow_aggregation () =
  let records =
    [ record ~ts:1.0 ~len:100 ~l4:(Some (1, 2)) ();
      record ~ts:5.0 ~len:200 ~l4:(Some (1, 2)) ();
      record ~ts:2.0 ~len:50 ~l4:(Some (3, 4)) () ]
  in
  let flows = Flows.aggregate records in
  Alcotest.(check int) "two flows" 2 (List.length flows);
  let big = List.hd flows in
  Alcotest.(check (float 1e-9)) "bytes summed" 300.0 big.Flows.bytes;
  Alcotest.(check (float 0.0)) "frames" 2.0 big.Flows.frames;
  Alcotest.(check (float 1e-9)) "first seen" 1.0 big.Flows.first_seen;
  Alcotest.(check (float 1e-9)) "last seen" 5.0 big.Flows.last_seen

let test_flow_aggregation_weighted () =
  let group1 = ([ record ~len:100 ~l4:(Some (1, 2)) () ], 0.1) in
  let group2 = ([ record ~len:100 ~l4:(Some (1, 2)) () ], 1.0) in
  let flows = Flows.aggregate ~weights:[ group1; group2 ] [] in
  match flows with
  | [ f ] ->
    (* 100/0.1 + 100/1.0 = 1100 *)
    Alcotest.(check (float 1e-6)) "thinned frames re-weighted" 1100.0 f.Flows.bytes
  | _ -> Alcotest.fail "expected one flow"

let test_flow_weighted_frame_counts () =
  (* Regression: frames must scale by the same 1/fraction weight as
     bytes.  The old code re-weighted bytes but counted each sampled
     record as exactly one frame, so a 10% sample under-reported frame
     counts 10x. *)
  let sampled =
    ([ record ~len:100 ~l4:(Some (1, 2)) (); record ~len:100 ~l4:(Some (1, 2)) () ], 0.1)
  in
  (match Flows.aggregate ~weights:[ sampled ] [] with
  | [ f ] ->
    Alcotest.(check (float 1e-9)) "frames re-weighted" 20.0 f.Flows.frames;
    Alcotest.(check (float 1e-6)) "bytes re-weighted" 2000.0 f.Flows.bytes
  | _ -> Alcotest.fail "expected one flow");
  (* fraction = 1.0 must stay an exact integer count (fast path). *)
  let full = ([ record ~l4:(Some (1, 2)) (); record ~l4:(Some (1, 2)) () ], 1.0) in
  match Flows.aggregate ~weights:[ full ] [] with
  | [ f ] ->
    Alcotest.(check (float 0.0)) "exact integer frames" 2.0 f.Flows.frames
  | _ -> Alcotest.fail "expected one flow"

let test_flow_vlan_separation () =
  let records =
    [ record ~vlans:[ 10 ] ~l4:(Some (1, 2)) ();
      record ~vlans:[ 20 ] ~l4:(Some (1, 2)) () ]
  in
  Alcotest.(check int) "same 5-tuple, two slices" 2
    (List.length (Flows.aggregate records))

let test_flow_rst_tracking () =
  let records =
    [ record ~l4:(Some (1, 2)) (); record ~rst:true ~l4:(Some (1, 2)) () ]
  in
  match Flows.aggregate records with
  | [ f ] -> Alcotest.(check bool) "rst seen" true f.Flows.rst_seen
  | _ -> Alcotest.fail "one flow expected"

let test_flow_top_n () =
  let records =
    [ record ~len:1000 ~l4:(Some (1, 2)) (); record ~len:10 ~l4:(Some (3, 4)) () ]
  in
  let top = Flows.top_n (Flows.aggregate records) 1 in
  Alcotest.(check int) "one" 1 (List.length top);
  Alcotest.(check (float 1e-9)) "largest kept" 1000.0 (List.hd top).Flows.bytes;
  let all = Flows.aggregate records in
  Alcotest.(check bool) "n >= length returns all" true (Flows.top_n all 5 = all);
  Alcotest.(check bool) "n = 0 returns none" true (Flows.top_n all 0 = []);
  Alcotest.(check bool) "exact prefix" true
    (Flows.top_n (all @ all) 3 = all @ [ List.hd all ])

let test_flow_size_histogram () =
  let records =
    [ record ~len:100 ~l4:(Some (1, 2)) (); record ~len:100_000 ~l4:(Some (3, 4)) () ]
  in
  let h = Flows.size_log_histogram (Flows.aggregate records) in
  Alcotest.(check (list (pair int int))) "two entries" [ (6, 1); (16, 1) ]
    (Netcore.Histogram.Log2.buckets h)

(* --- Report --- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Report.csv_escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Report.csv_escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Report.csv_escape "a\"b")

let test_csv_rows () =
  let csv = Report.csv_of_rows ~header:[ "x"; "y" ] [ [ "1"; "a,b" ]; [ "2"; "c" ] ] in
  Alcotest.(check string) "csv" "x,y\n1,\"a,b\"\n2,c\n" csv

(* --- Digest --- *)

let sample_with_pcap () =
  let w = Packet.Pcap.Writer.create () in
  let eth : H.header =
    H.Ethernet
      { src = Netcore.Mac.of_int64 0x020000000001L;
        dst = Netcore.Mac.of_int64 0x020000000002L }
  in
  let ip : H.header =
    H.Ipv4
      { src = Netcore.Ipv4_addr.of_string "10.0.0.1";
        dst = Netcore.Ipv4_addr.of_string "10.0.0.2";
        dscp = 0; ttl = 64; ident = 0; dont_fragment = false }
  in
  let tcp : H.header =
    H.Tcp
      { src_port = 4000; dst_port = 5201; seq = 0l; ack_seq = 0l;
        flags = H.flags_psh_ack; window = 10 }
  in
  let frame = Packet.Frame.make [ eth; ip; tcp ] ~payload_len:64 in
  Oracle.add_frame w ~ts:1.0 frame;
  Oracle.add_frame w ~ts:2.0 frame;
  {
    Patchwork.Capture.sample_site = "STAR";
    sample_port = 3;
    sample_start = 0.0;
    sample_duration = 20.0;
    acaps = [];
    materialized_fraction = 1.0;
    pcap = Some (Packet.Pcap.Writer.contents w);
    stats =
      {
        Patchwork.Capture.loss =
          {
            Patchwork.Capture.b_offered_frames = 2.0;
            b_offered_bytes = 0.0;
            b_switch_dropped = 0.0;
            b_host_dropped = 0.0;
            b_captured_frames = 2.0;
            b_host_keep = 1.0;
            b_stored_wire_bytes = 0.0;
            b_causes = [];
          };
        stored_bytes = 300.0;
        flow_estimate = 1.0;
        congestion_detected = false;
      };
  }

let test_digest_pcap () =
  let sample = sample_with_pcap () in
  let acaps = Digest.sample_acaps sample in
  Alcotest.(check int) "two records" 2 (List.length acaps);
  let r = List.hd acaps in
  Alcotest.(check (list string)) "stack digested"
    [ "eth"; "ipv4"; "tcp"; "iperf3" ] r.Acap.stack

(* --- Profile over a real occasion --- *)

let test_profile_end_to_end () =
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed:31 engine in
  let driver = Traffic.Driver.create fabric ~seed:31 in
  let config =
    {
      Patchwork.Config.default with
      Patchwork.Config.samples_per_run = 2;
      max_frames_per_sample = 1000;
    }
  in
  let report =
    Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~max_instances:1
      ~start_time:0.0 ~duration:1900.0 ()
  in
  let profile = Analysis.Profile.of_reports [ report ] in
  Alcotest.(check int) "one occasion" 1 profile.Analysis.Profile.occasions;
  Alcotest.(check bool) "samples present" true (profile.Analysis.Profile.total_samples > 20);
  Alcotest.(check bool) "vlan tagged traffic" true
    (Profile.occurrence_of profile.Analysis.Profile.occurrence "vlan" > 90.0);
  (* CSV emission works and produces the advertised files. *)
  let dir = Filename.temp_file "patchwork_csv" "" in
  Sys.remove dir;
  let files = Analysis.Profile.write_csv_files profile ~dir in
  List.iter
    (fun f ->
      Alcotest.(check bool) ("exists: " ^ f) true
        (Sys.file_exists (Filename.concat dir f)))
    files;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir

let suites =
  [
    ( "analysis.analyze",
      [
        Alcotest.test_case "occurrence multiplicity" `Quick test_occurrence_with_multiplicity;
        Alcotest.test_case "occurrence sorted" `Quick test_occurrence_sorted_descending;
        Alcotest.test_case "occurrence ties by token" `Quick test_occurrence_ties_by_token;
        Alcotest.test_case "size histogram bins" `Quick test_frame_size_histogram_bins;
        Alcotest.test_case "jumbo fraction" `Quick test_jumbo_fraction;
        Alcotest.test_case "observed flows" `Quick test_observed_flows;
        Alcotest.test_case "ipv6/rst percent" `Quick test_ipv6_rst_percent;
      ] );
    ( "analysis.flows",
      [
        Alcotest.test_case "aggregation" `Quick test_flow_aggregation;
        Alcotest.test_case "weighted aggregation" `Quick test_flow_aggregation_weighted;
        Alcotest.test_case "weighted frame counts" `Quick
          test_flow_weighted_frame_counts;
        Alcotest.test_case "vlan separation" `Quick test_flow_vlan_separation;
        Alcotest.test_case "rst tracking" `Quick test_flow_rst_tracking;
        Alcotest.test_case "top n" `Quick test_flow_top_n;
        Alcotest.test_case "size histogram" `Quick test_flow_size_histogram;
      ] );
    ( "analysis.report",
      [
        Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
        Alcotest.test_case "csv rows" `Quick test_csv_rows;
      ] );
    ( "analysis.digest_index",
      [
        Alcotest.test_case "digest pcap" `Quick test_digest_pcap;
      ] );
    ( "analysis.profile",
      [ Alcotest.test_case "end to end" `Slow test_profile_end_to_end ] );
  ]
