open Packet
module Dissector = Dissect.Dissector
module Acap = Dissect.Acap
module H = Headers

let eth : H.header =
  H.Ethernet
    { src = Netcore.Mac.of_int64 0x020000000001L;
      dst = Netcore.Mac.of_int64 0x020000000002L }

let ipv4 () : H.header =
  H.Ipv4
    { src = Netcore.Ipv4_addr.of_string "10.0.0.1";
      dst = Netcore.Ipv4_addr.of_string "10.0.0.2";
      dscp = 10; ttl = 64; ident = 99; dont_fragment = false }

let tcp ~dst_port : H.header =
  H.Tcp
    { src_port = 43210; dst_port; seq = 100l; ack_seq = 200l;
      flags = H.flags_psh_ack; window = 500 }

let headers_testable =
  Alcotest.testable
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf h ->
         Format.pp_print_string ppf (H.name h)))
    (fun a b -> a = b)

let roundtrip frame =
  let b = Codec.encode frame in
  Dissector.dissect b

let test_simple_tcp_roundtrip () =
  let f = Frame.make [ eth; ipv4 (); tcp ~dst_port:5201 ] ~payload_len:100 in
  let d = roundtrip f in
  Alcotest.check headers_testable "headers" f.Frame.headers d.Dissector.headers;
  Alcotest.(check int) "payload" 100 d.Dissector.payload_len;
  Alcotest.(check bool) "not truncated" false d.Dissector.truncated

let test_padding_not_counted_for_ip () =
  (* 54-byte packet padded to 60: IP total length must trim the pad. *)
  let f = Frame.make [ eth; ipv4 (); tcp ~dst_port:5201 ] ~payload_len:0 in
  let d = roundtrip f in
  Alcotest.(check int) "payload 0 despite padding" 0 d.Dissector.payload_len

let test_deep_encapsulation_roundtrip () =
  let f =
    Frame.make
      [ eth;
        H.Vlan { pcp = 1; dei = false; vid = 3001 };
        H.Mpls { label = 16001; tc = 2; ttl = 62 };
        H.Mpls { label = 16002; tc = 2; ttl = 61 };
        H.Pseudowire;
        eth;
        ipv4 ();
        tcp ~dst_port:443;
        H.Tls { content_type = 22 } ]
      ~payload_len:333
  in
  let d = roundtrip f in
  Alcotest.check headers_testable "headers" f.Frame.headers d.Dissector.headers;
  Alcotest.(check int) "payload" 333 d.Dissector.payload_len

let test_vxlan_roundtrip () =
  let f =
    Frame.make
      [ eth; ipv4 (); H.Udp { src_port = 50000; dst_port = 4789 };
        H.Vxlan { vni = 0xABCDE }; eth; ipv4 (); tcp ~dst_port:80;
        H.Http `Request ]
      ~payload_len:50
  in
  let d = roundtrip f in
  Alcotest.check headers_testable "headers" f.Frame.headers d.Dissector.headers

let test_arp_roundtrip () =
  let f =
    Frame.make
      [ eth;
        H.Arp
          { operation = `Reply;
            sender_mac = Netcore.Mac.of_int64 0x020000000001L;
            sender_ip = Netcore.Ipv4_addr.of_string "10.0.0.1";
            target_mac = Netcore.Mac.of_int64 0x020000000002L;
            target_ip = Netcore.Ipv4_addr.of_string "10.0.0.2" } ]
      ~payload_len:0
  in
  let d = roundtrip f in
  Alcotest.check headers_testable "headers" f.Frame.headers d.Dissector.headers;
  Alcotest.(check int) "padding not payload" 0 d.Dissector.payload_len

let test_app_layer_classification () =
  let cases =
    [ (tcp ~dst_port:443, H.Tls { content_type = 23 });
      (tcp ~dst_port:22, H.Ssh);
      (tcp ~dst_port:80, H.Http `Response);
      (tcp ~dst_port:8080, H.Http `Request);
      (H.Udp { src_port = 40000; dst_port = 53 }, H.Dns { query = true; id = 77 });
      (H.Udp { src_port = 40000; dst_port = 123 }, H.Ntp);
      (H.Udp { src_port = 40000; dst_port = 443 }, H.Quic) ]
  in
  List.iter
    (fun (l4, app) ->
      let f = Frame.make [ eth; ipv4 (); l4; app ] ~payload_len:64 in
      let d = roundtrip f in
      match List.rev d.Dissector.headers with
      | last :: _ ->
        Alcotest.(check string)
          (H.name app ^ " classified")
          (H.name app) (H.name last)
      | [] -> Alcotest.fail "no headers")
    cases

let test_no_app_on_unknown_port () =
  let f = Frame.make [ eth; ipv4 (); tcp ~dst_port:7777 ] ~payload_len:64 in
  let d = roundtrip f in
  Alcotest.(check int) "3 headers only" 3 (List.length d.Dissector.headers);
  Alcotest.(check int) "payload intact" 64 d.Dissector.payload_len

(* Zero bytes on port 53 hold neither a question nor an answer, so they
   are no DNS header: they stay payload, over TCP and UDP alike. *)
let test_zero_dns_stays_payload () =
  List.iter
    (fun l4 ->
      let d = roundtrip (Frame.make [ eth; ipv4 (); l4 ] ~payload_len:64) in
      Alcotest.check headers_testable "no dns header" [ eth; ipv4 (); l4 ]
        d.Dissector.headers;
      Alcotest.(check int) "payload intact" 64 d.Dissector.payload_len)
    [
      H.Tcp
        { src_port = 53; dst_port = 43210; seq = 1l; ack_seq = 2l; flags = H.flags_ack;
          window = 500 };
      H.Udp { src_port = 53; dst_port = 43210 };
    ]

let test_truncated_capture () =
  let f = Frame.make [ eth; ipv4 (); tcp ~dst_port:5201 ] ~payload_len:1000 in
  let b = Codec.encode f in
  let snapped = Slice.make b ~off:0 ~len:200 in
  let d = Dissector.dissect_slice ~orig_len:(Bytes.length b) snapped in
  Alcotest.(check bool) "truncated" true d.Dissector.truncated;
  Alcotest.check headers_testable "headers survive" f.Frame.headers d.Dissector.headers

let test_truncated_mid_header () =
  let f = Frame.make [ eth; ipv4 (); tcp ~dst_port:5201 ] ~payload_len:1000 in
  let b = Codec.encode f in
  (* Cut inside the TCP header (starts at 34). *)
  let snapped = Slice.make b ~off:0 ~len:40 in
  let d = Dissector.dissect_slice ~orig_len:(Bytes.length b) snapped in
  Alcotest.(check bool) "truncated" true d.Dissector.truncated;
  Alcotest.(check int) "eth+ip survive" 2 (List.length d.Dissector.headers)

let test_garbage_input () =
  let d = Dissector.dissect (Bytes.make 60 '\xAA') in
  (* 0xAAAA is an unknown EtherType: Ethernet parses, rest is payload. *)
  Alcotest.(check int) "one header" 1 (List.length d.Dissector.headers)

let test_empty_input () =
  let d = Dissector.dissect Bytes.empty in
  Alcotest.(check bool) "truncated" true d.Dissector.truncated;
  Alcotest.(check int) "no headers" 0 (List.length d.Dissector.headers)

(* --- Acap --- *)

let test_acap_of_frame () =
  let f =
    Frame.make
      [ eth; H.Vlan { pcp = 0; dei = false; vid = 11 };
        H.Mpls { label = 555; tc = 0; ttl = 64 }; ipv4 (); tcp ~dst_port:443;
        H.Tls { content_type = 23 } ]
      ~payload_len:100
  in
  let r = Acap.of_frame ~ts:42.0 f in
  Alcotest.(check (list string)) "stack"
    [ "eth"; "vlan"; "mpls"; "ipv4"; "tcp"; "tls" ]
    r.Acap.stack;
  Alcotest.(check (list int)) "vlans" [ 11 ] r.Acap.vlan_ids;
  Alcotest.(check (list int)) "mpls" [ 555 ] r.Acap.mpls_labels;
  Alcotest.(check (option string)) "src" (Some "10.0.0.1") r.Acap.src;
  Alcotest.(check bool) "no rst" false r.Acap.tcp_rst

let test_acap_line_fields () =
  let f =
    Frame.make [ eth; ipv4 (); tcp ~dst_port:22; H.Ssh ] ~payload_len:10
  in
  let r = Acap.of_frame ~ts:1.5 f in
  match String.split_on_char '\t' (Acap.to_line r) with
  | [ ts; orig_len; _; stack; vlans; mplss; src; _; _; rst; _ ] ->
    Alcotest.(check (float 0.0)) "ts" 1.5 (float_of_string ts);
    Alcotest.(check string) "orig_len" (string_of_int r.Acap.orig_len) orig_len;
    Alcotest.(check string) "stack" "eth,ipv4,tcp,ssh" stack;
    Alcotest.(check (list string)) "no tags" [ "-"; "-" ] [ vlans; mplss ];
    Alcotest.(check (option string)) "src" r.Acap.src (Some src);
    Alcotest.(check string) "rst" "-" rst
  | cols -> Alcotest.failf "%d columns" (List.length cols)

let test_acap_flow_key_distinguishes_tags () =
  let make_with_vlan vid =
    let f =
      Frame.make
        [ eth; H.Vlan { pcp = 0; dei = false; vid }; ipv4 (); tcp ~dst_port:5201 ]
        ~payload_len:0
    in
    Acap.of_frame ~ts:0.0 f
  in
  let k1 = Acap.flow_key (make_with_vlan 10) in
  let k2 = Acap.flow_key (make_with_vlan 20) in
  Alcotest.(check bool) "keys exist" true (k1 <> None && k2 <> None);
  Alcotest.(check bool) "same 5-tuple, different vlan => different flow" true (k1 <> k2);
  let k3 = Acap.flow_key (make_with_vlan 10) in
  Alcotest.(check bool) "deterministic" true (k1 = k3)

let test_acap_rst_flag () =
  let f =
    Frame.make
      [ eth; ipv4 ();
        H.Tcp
          { src_port = 1; dst_port = 2; seq = 0l; ack_seq = 0l;
            flags = { H.flags_none with rst = true }; window = 0 } ]
      ~payload_len:0
  in
  let r = Acap.of_frame ~ts:0.0 f in
  Alcotest.(check bool) "rst seen" true r.Acap.tcp_rst

let test_acap_no_l3 () =
  let f =
    Frame.make
      [ eth;
        H.Arp
          { operation = `Request;
            sender_mac = Netcore.Mac.of_int64 0L; sender_ip = Netcore.Ipv4_addr.of_string "0.0.0.0";
            target_mac = Netcore.Mac.of_int64 0L; target_ip = Netcore.Ipv4_addr.of_string "0.0.0.0" } ]
      ~payload_len:0
  in
  let r = Acap.of_frame ~ts:0.0 f in
  Alcotest.(check (option string)) "no flow key" None (Acap.flow_key r)

(* --- the digest names what the generator emits --- *)

(* The fields of a record the digest must read back from the stored
   bytes: all but its stamp (time, captured length, truncation). *)
let unstamped (r : Acap.record) =
  ( r.Acap.orig_len, r.Acap.stack, r.Acap.vlan_ids, r.Acap.mpls_labels, r.Acap.src,
    r.Acap.dst, r.Acap.l4, r.Acap.tcp_rst, r.Acap.key )

(* MPLS labels, PseudoWire, VXLAN and IPv6 for the five encapsulations
   the traffic driver builds around a service: VLAN alone, MPLS, a
   PseudoWire, a VXLAN overlay and IPv6. *)
let encapsulations =
  [
    ([], false, false, false); ([ 1001 ], false, false, false);
    ([ 1001; 2002 ], true, false, false); ([ 1001 ], false, true, false);
    ([], false, false, true);
  ]

(* Every [Stack_builder] template, one per catalog service, encapsulation
   and direction, at one payload length: the record the capture
   abstracts from the template and the digest of its bytes snapped to
   [snap] agree at every snap that keeps the header stack whole (a
   shorter one cuts the stack by design).  Each case checks the 14 snaps
   from the header length up (a DNS header is 12 bytes), one [extra]
   bytes past it and the whole frame. *)
let templates_case (seed, payload_len, extra) =
  let rng = Netcore.Rng.create seed in
  let agree ~service (mpls_labels, use_pseudowire, use_vxlan, use_ipv6) reverse =
    let forward =
      Traffic.Stack_builder.forward rng
        { Traffic.Stack_builder.vlan_id = 100 + Netcore.Rng.int rng 3900; mpls_labels;
          use_pseudowire; use_vxlan; use_ipv6; service }
    in
    let frame =
      Frame.make ~payload_len
        (if reverse then Traffic.Stack_builder.reverse forward else forward)
    in
    let wire = Frame.wire_length frame and header = Frame.header_size_total frame in
    let inline = unstamped (Acap.of_frame ~ts:0.0 frame) in
    (* [Codec.encode ~limit] writes a prefix of the whole encoding. *)
    let bytes = Codec.encode frame in
    let digest snap =
      unstamped (Acap.of_slice ~ts:0.0 ~orig_len:wire (Slice.make bytes ~off:0 ~len:snap))
    in
    List.for_all
      (fun snap -> digest (min wire snap) = inline)
      (wire :: (header + extra) :: List.init 14 (fun i -> header + i))
  in
  Array.for_all
    (fun service ->
      List.for_all
        (fun encap -> agree ~service encap false && agree ~service encap true)
        encapsulations)
    Dissect.Services.catalog

(* Every [Stack_builder] template, as a flow of 64 subflows, at subflow
   0 and one above: the records [Flow_model.stamp_draw] writes from the
   class's template (its frame at index 0, compiled) hold the oracle's
   encoding of each draw's own frame, cut at the snap length, and its
   wire length.  The draws cover the header length, 1,500 and 9,000
   bytes, and indices that wrap the IPv4 ident past 0xFFFF and the TCP
   seq past 2{^32}; the snaps cut inside the stack, at its end and past
   it.  One template is stamped for every draw and snap, as a capture
   stamps it, so a field one stamp leaves unset shows in the next. *)
let stamps_case seed =
  let rng = Netcore.Rng.create seed in
  let module Flow_model = Traffic.Flow_model in
  let agree ~service (mpls_labels, use_pseudowire, use_vxlan, use_ipv6) reverse =
    let forward =
      Traffic.Stack_builder.forward rng
        { Traffic.Stack_builder.vlan_id = 100 + Netcore.Rng.int rng 3900; mpls_labels;
          use_pseudowire; use_vxlan; use_ipv6; service }
    in
    let template = if reverse then Traffic.Stack_builder.reverse forward else forward in
    let spec =
      Flow_model.make ~flow_id:(Netcore.Rng.int rng 1_000_000) ~template
        ~frame_size:(Netcore.Dist.Constant 1500.0) ~avg_frame_size:1500.0
        ~byte_rate:1500.0 ~start_time:0.0 ~duration:1.0 ~subflows:64 ()
    in
    let header = List.fold_left (fun n h -> n + H.size h) 0 template in
    let draws =
      List.concat_map
        (fun wire_len ->
          List.map (fun index -> (index, wire_len))
            [ 0; 1; 0xFFFF; 0x10003; 700_000; 3_000_001 ])
        [ header; 1500; 9000 ]
    in
    List.for_all
      (fun subflow ->
        let frame ~index ~wire_len = Flow_model.draw_frame spec ~index ~wire_len ~subflow in
        let whole =
          List.map (fun (index, wire_len) -> Oracle.encode (frame ~index ~wire_len)) draws
        in
        let class_template = Codec.template (frame ~index:0 ~wire_len:header) in
        List.for_all
          (fun snap ->
            let w = Pcap.Writer.create ~snaplen:snap () in
            List.iter
              (fun (index, wire_len) ->
                Flow_model.stamp_draw w ~ts:0.0 class_template ~index ~wire_len)
              draws;
            List.for_all2
              (fun (p : Oracle.packet) b ->
                p.Oracle.orig_len = Bytes.length b
                && Bytes.equal p.Oracle.data (Bytes.sub b 0 (min snap (Bytes.length b))))
              (Oracle.pcap_packets (Pcap.Writer.contents w))
              whole)
          [ 14; header - 1; header; 96; 200; 65_535 ])
      [ 0; 1 + Netcore.Rng.int rng 63 ]
  in
  Array.for_all
    (fun service ->
      List.for_all
        (fun encap -> agree ~service encap false && agree ~service encap true)
        encapsulations)
    Dissect.Services.catalog

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"digest of a template's bytes names what it names" ~count:10
      (triple (int_range 1 1_000_000) (int_range 0 1400) (int_range 0 1500))
      templates_case;
    Test.make ~name:"dissect inverts encode (headers)" ~count:500
      (Frame_gen.frame_arb ())
      (fun f ->
        let d = Dissector.dissect (Codec.encode f) in
        d.Dissector.headers = f.Frame.headers);
    Test.make ~name:"dissect inverts encode (payload, unpadded frames)" ~count:500
      (Frame_gen.frame_arb ())
      (fun f ->
        let d = Dissector.dissect (Codec.encode f) in
        (* Padded frames without an IP extent can over-count payload; IP
           is always present in generated stacks, so equality holds. *)
        d.Dissector.payload_len = f.Frame.payload_len);
    Test.make ~name:"dissection of snapped frames never raises" ~count:500
      (pair (Frame_gen.frame_arb ()) (int_range 1 120))
      (fun (f, snap) ->
        let b = Codec.encode f in
        let snap = min snap (Bytes.length b) in
        let d =
          Dissector.dissect_slice ~orig_len:(Bytes.length b) (Slice.make b ~off:0 ~len:snap)
        in
        List.length d.Dissector.headers <= List.length f.Frame.headers);
    Test.make ~name:"acap line columns" ~count:300
      (Frame_gen.frame_arb ())
      (fun f ->
        let r = Acap.of_frame ~ts:123.456 f in
        match String.split_on_char '\t' (Acap.to_line r) with
        | [ ts; _; _; stack; _; _; _; _; _; _; _ ] ->
          float_of_string ts = r.Acap.ts
          && stack = String.concat "," r.Acap.stack
        | _ -> false);
    Test.make ~name:"a class template's stamp is the oracle's draw encoding" ~count:2
      (int_range 1 1_000_000) stamps_case;
  ]

let suites =
  [
    ( "dissect.roundtrip",
      [
        Alcotest.test_case "simple tcp" `Quick test_simple_tcp_roundtrip;
        Alcotest.test_case "padding excluded via IP length" `Quick test_padding_not_counted_for_ip;
        Alcotest.test_case "deep encapsulation" `Quick test_deep_encapsulation_roundtrip;
        Alcotest.test_case "vxlan tunnel" `Quick test_vxlan_roundtrip;
        Alcotest.test_case "arp" `Quick test_arp_roundtrip;
      ] );
    ( "dissect.classification",
      [
        Alcotest.test_case "app layers by port" `Quick test_app_layer_classification;
        Alcotest.test_case "unknown port stays payload" `Quick test_no_app_on_unknown_port;
        Alcotest.test_case "zero dns header stays payload" `Quick test_zero_dns_stays_payload;
      ] );
    ( "dissect.robustness",
      [
        Alcotest.test_case "truncated capture" `Quick test_truncated_capture;
        Alcotest.test_case "truncated mid-header" `Quick test_truncated_mid_header;
        Alcotest.test_case "garbage input" `Quick test_garbage_input;
        Alcotest.test_case "empty input" `Quick test_empty_input;
      ] );
    ( "dissect.acap",
      [
        Alcotest.test_case "abstraction fields" `Quick test_acap_of_frame;
        Alcotest.test_case "line fields" `Quick test_acap_line_fields;
        Alcotest.test_case "flow key uses tags" `Quick test_acap_flow_key_distinguishes_tags;
        Alcotest.test_case "rst flag" `Quick test_acap_rst_flag;
        Alcotest.test_case "no l3 no flow" `Quick test_acap_no_l3;
      ] );
    ("dissect.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
