open Packet
module H = Headers

let mac n = Netcore.Mac.of_int64 n
let ip s = Netcore.Ipv4_addr.of_string s

let eth : H.header =
  H.Ethernet { src = mac 0x020000000001L; dst = mac 0x020000000002L }

let ipv4 ?(src = "10.0.0.1") ?(dst = "10.0.0.2") () : H.header =
  H.Ipv4
    { src = ip src; dst = ip dst; dscp = 0; ttl = 64; ident = 1234; dont_fragment = true }

let tcp ?(src_port = 40000) ?(dst_port = 5201) ?(flags = H.flags_psh_ack) () : H.header =
  H.Tcp { src_port; dst_port; seq = 7l; ack_seq = 9l; flags; window = 1024 }

let udp ?(src_port = 40000) ?(dst_port = 9999) () : H.header =
  H.Udp { src_port; dst_port }

(* --- Frame structure --- *)

let test_validate_accepts_typical () =
  let stacks =
    [
      [ eth; ipv4 (); tcp () ];
      [ eth; H.Vlan { pcp = 0; dei = false; vid = 100 }; ipv4 (); udp () ];
      [
        eth;
        H.Vlan { pcp = 0; dei = false; vid = 100 };
        H.Mpls { label = 100; tc = 0; ttl = 64 };
        H.Mpls { label = 200; tc = 0; ttl = 64 };
        H.Pseudowire;
        eth;
        ipv4 ();
        tcp ~dst_port:443 ();
        H.Tls { content_type = 23 };
      ];
      [ eth; H.Arp
          { operation = `Request; sender_mac = mac 0x020000000001L;
            sender_ip = ip "10.0.0.1"; target_mac = Netcore.Mac.of_int64 0L;
            target_ip = ip "10.0.0.2" } ];
      [ eth; ipv4 (); udp ~dst_port:4789 (); H.Vxlan { vni = 42 }; eth; ipv4 (); tcp () ];
    ]
  in
  List.iter
    (fun stack ->
      match Frame.validate stack with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "valid stack rejected: %s" msg)
    stacks

let test_validate_rejects_malformed () =
  let bad =
    [
      [];
      [ ipv4 () ];
      (* must start with Ethernet *)
      [ eth; tcp () ];
      (* L4 without IP *)
      [ eth; ipv4 (); ipv4 () ];
      (* IP in IP without tunnel *)
      [ eth; H.Pseudowire ];
      (* PW without MPLS *)
      [ eth; H.Mpls { label = 1; tc = 0; ttl = 64 }; H.Pseudowire ];
      (* PW must be followed by Ethernet *)
      [ eth; ipv4 (); tcp (); H.Dns { query = true; id = 1 }; tcp () ];
    ]
  in
  List.iter
    (fun stack ->
      match Frame.validate stack with
      | Ok () -> Alcotest.fail "malformed stack accepted"
      | Error _ -> ())
    bad

let test_wire_length_padding () =
  (* Minimal TCP frame: 14 + 20 + 20 = 54 < 60, so padded. *)
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:0 in
  Alcotest.(check int) "padded" 60 (Frame.wire_length f);
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:1000 in
  Alcotest.(check int) "unpadded" 1054 (Frame.wire_length f)

let test_accessors () =
  let f =
    Frame.make
      [
        eth;
        H.Vlan { pcp = 0; dei = false; vid = 7 };
        H.Mpls { label = 1000; tc = 0; ttl = 64 };
        H.Mpls { label = 2000; tc = 0; ttl = 64 };
        ipv4 ();
        tcp ();
      ]
      ~payload_len:10
  in
  Alcotest.(check (list int)) "vlans" [ 7 ] (Frame.vlan_ids f);
  Alcotest.(check (list int)) "labels" [ 1000; 2000 ] (Frame.mpls_labels f);
  Alcotest.(check (list string))
    "tokens" [ "eth"; "vlan"; "mpls"; "mpls"; "ipv4"; "tcp" ] (Frame.tokens f)

(* --- Codec --- *)

let test_encode_min_size () =
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:0 in
  Alcotest.(check int) "60 bytes" 60 (Bytes.length (Codec.encode f))

let test_encode_ethertype () =
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:0 in
  let b = Codec.encode f in
  Alcotest.(check int) "ethertype ipv4" 0x0800 (Bytes.get_uint16_be b 12)

let test_encode_ipv4_header () =
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:100 in
  let b = Codec.encode f in
  Alcotest.(check int) "version/ihl" 0x45 (Char.code (Bytes.get b 14));
  Alcotest.(check int) "total length" 140 (Bytes.get_uint16_be b 16);
  Alcotest.(check int) "protocol tcp" 6 (Char.code (Bytes.get b 23));
  (* Header checksum must verify: one's-complement sum of the 20-byte
     header equals 0xFFFF. *)
  let sum = Netcore.Checksum.ones_complement_sum b ~pos:14 ~len:20 in
  Alcotest.(check int) "ipv4 checksum valid" 0xFFFF sum

let tcp_checksum_valid b ~ip_pos ~tcp_pos ~tcp_len =
  let pseudo =
    Netcore.Checksum.ones_complement_sum b ~pos:(ip_pos + 12) ~len:8 + 6 + tcp_len
  in
  Netcore.Checksum.finish
    (pseudo + Netcore.Checksum.ones_complement_sum b ~pos:tcp_pos ~len:tcp_len)
  = 0

let test_encode_tcp_checksum () =
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:64 in
  let b = Codec.encode f in
  Alcotest.(check bool) "tcp checksum valid" true
    (tcp_checksum_valid b ~ip_pos:14 ~tcp_pos:34 ~tcp_len:84)

let test_encode_vlan_chain () =
  let f =
    Frame.make [ eth; H.Vlan { pcp = 3; dei = false; vid = 100 }; ipv4 (); udp () ]
      ~payload_len:0
  in
  let b = Codec.encode f in
  Alcotest.(check int) "outer ethertype vlan" 0x8100 (Bytes.get_uint16_be b 12);
  Alcotest.(check int) "tci" ((3 lsl 13) lor 100) (Bytes.get_uint16_be b 14);
  Alcotest.(check int) "inner ethertype" 0x0800 (Bytes.get_uint16_be b 16)

let test_encode_mpls_bottom_of_stack () =
  let f =
    Frame.make
      [ eth; H.Mpls { label = 16; tc = 0; ttl = 64 };
        H.Mpls { label = 17; tc = 0; ttl = 64 }; ipv4 (); udp () ]
      ~payload_len:0
  in
  let b = Codec.encode f in
  let word1 = Bytes.get_int32_be b 14 and word2 = Bytes.get_int32_be b 18 in
  let bos w = Int32.to_int (Int32.shift_right_logical w 8) land 1 in
  Alcotest.(check int) "first label not BoS" 0 (bos word1);
  Alcotest.(check int) "second label BoS" 1 (bos word2)

(* --- pcap --- *)

let test_pcap_roundtrip () =
  let w = Pcap.Writer.create () in
  let f1 = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:10 in
  let f2 = Frame.make [ eth; ipv4 (); udp () ] ~payload_len:500 in
  Pcap.Writer.add_frame w ~ts:1.25 f1;
  Pcap.Writer.add_frame w ~ts:2.5 f2;
  Alcotest.(check int) "count" 2 (Pcap.Writer.packet_count w);
  let packets = Oracle.pcap_packets (Pcap.Writer.contents w) in
  Alcotest.(check int) "read back" 2 (List.length packets);
  let p1 = List.nth packets 0 and p2 = List.nth packets 1 in
  Alcotest.(check (float 1e-5)) "ts1" 1.25 p1.Oracle.ts;
  Alcotest.(check (float 1e-5)) "ts2" 2.5 p2.Oracle.ts;
  Alcotest.(check int) "len1" 64 p1.Oracle.orig_len;
  Alcotest.(check int) "len2" 542 p2.Oracle.orig_len;
  Alcotest.(check bytes) "bytes1" (Codec.encode f1) p1.Oracle.data

let test_pcap_snaplen_truncation () =
  let w = Pcap.Writer.create ~snaplen:64 () in
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:1000 in
  Pcap.Writer.add_frame w ~ts:0.0 f;
  let packets = Oracle.pcap_packets (Pcap.Writer.contents w) in
  let p = List.hd packets in
  Alcotest.(check int) "captured" 64 (Bytes.length p.Oracle.data);
  Alcotest.(check int) "orig" 1054 p.Oracle.orig_len;
  (* The global header's snaplen field, big-endian at offset 16. *)
  Alcotest.(check int32) "snaplen recorded" 64l
    (Bytes.get_int32_be (Pcap.Writer.contents w) 16)

let test_pcap_bad_magic () =
  let b = Bytes.make 24 '\x00' in
  Alcotest.check_raises "bad magic"
    (Pcap.Reader.Malformed "bad magic 0x00000000") (fun () ->
      ignore (Oracle.pcap_packets b))

let test_pcap_file_io () =
  let w = Pcap.Writer.create () in
  let f = Frame.make [ eth; ipv4 (); tcp () ] ~payload_len:30 in
  Pcap.Writer.add_frame w ~ts:10.0 f;
  let path = Filename.temp_file "patchwork_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pcap.Writer.to_file w path;
      let packets =
        Oracle.pcap_packets
          (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all))
      in
      Alcotest.(check int) "one packet" 1 (List.length packets))

(* --- Filter --- *)

let sample_tls_frame =
  Frame.make
    [ eth; H.Vlan { pcp = 0; dei = false; vid = 42 };
      H.Mpls { label = 777; tc = 0; ttl = 64 };
      ipv4 ~src:"10.1.2.3" ~dst:"10.9.8.7" ();
      tcp ~src_port:55555 ~dst_port:443 (); H.Tls { content_type = 23 } ]
    ~payload_len:200

let check_filter expr frame expected =
  match Filter.parse expr with
  | Error msg -> Alcotest.failf "parse %S failed: %s" expr msg
  | Ok f ->
    Alcotest.(check bool) expr expected
      (Filter.matches ~wire_len:(Frame.wire_length frame) f frame)

let test_filter_protocols () =
  check_filter "ip" sample_tls_frame true;
  check_filter "ip6" sample_tls_frame false;
  check_filter "tcp" sample_tls_frame true;
  check_filter "udp" sample_tls_frame false;
  check_filter "tls" sample_tls_frame true;
  check_filter "vlan" sample_tls_frame true;
  check_filter "vlan 42" sample_tls_frame true;
  check_filter "vlan 43" sample_tls_frame false;
  check_filter "mpls 777" sample_tls_frame true

let test_filter_hosts_ports () =
  check_filter "host 10.1.2.3" sample_tls_frame true;
  check_filter "src host 10.1.2.3" sample_tls_frame true;
  check_filter "dst host 10.1.2.3" sample_tls_frame false;
  check_filter "port 443" sample_tls_frame true;
  check_filter "dst port 443" sample_tls_frame true;
  check_filter "src port 443" sample_tls_frame false;
  check_filter "port 80" sample_tls_frame false

let test_filter_boolean () =
  check_filter "tcp and port 443" sample_tls_frame true;
  check_filter "tcp and port 80" sample_tls_frame false;
  check_filter "udp or tls" sample_tls_frame true;
  check_filter "not udp" sample_tls_frame true;
  check_filter "not ( tcp and vlan 42 )" sample_tls_frame false;
  (* "or" binds looser than "and". *)
  check_filter "udp and udp or tcp" sample_tls_frame true

let test_filter_length () =
  check_filter "greater 200" sample_tls_frame true;
  check_filter "less 100" sample_tls_frame false

let test_filter_parse_errors () =
  List.iter
    (fun expr ->
      match Filter.parse expr with
      | Ok _ -> Alcotest.failf "expected parse error for %S" expr
      | Error _ -> ())
    [ "bogus"; "port"; "host 999.1.1.1"; "( tcp"; "tcp tcp"; "src 443" ]

let test_filter_empty_is_true () =
  match Filter.parse "" with
  | Ok Filter.True -> ()
  | _ -> Alcotest.fail "empty filter should be True"

let test_filter_to_string_roundtrip () =
  let exprs =
    [ "tcp and port 443"; "not ( udp or icmp )"; "src host 10.1.2.3 and vlan 42" ]
  in
  List.iter
    (fun expr ->
      match Filter.parse expr with
      | Error msg -> Alcotest.failf "parse %S: %s" expr msg
      | Ok f -> (
        match Filter.parse (Filter.to_string f) with
        | Error msg -> Alcotest.failf "reparse of %S: %s" (Filter.to_string f) msg
        | Ok f' ->
          let wire_len = Frame.wire_length sample_tls_frame in
          Alcotest.(check bool) expr true
            (Filter.matches ~wire_len f sample_tls_frame
            = Filter.matches ~wire_len f' sample_tls_frame)))
    exprs

(* --- Records against the full-payload oracle --- *)

let snaplens = [ 14; 60; 96; 200; 1514; 65535 ]

(* One to six random frames up to jumbo size.  A quarter ride a VXLAN
   overlay, whose outer UDP checksum covers the inner frame's headers
   and their checksums. *)
let oracle_frames seed =
  let rng = Netcore.Rng.create seed in
  List.init (1 + Netcore.Rng.int rng 6) (fun _ ->
      let f = Frame_gen.random_frame ~max_payload:9000 rng in
      if Netcore.Rng.bernoulli rng 0.25 then
        let vxlan = H.Vxlan { vni = Netcore.Rng.int rng 0x1000000 } in
        let underlay =
          if Netcore.Rng.bool rng then Frame_gen.ipv4 rng else Frame_gen.ipv6 rng
        in
        Frame.make
          (Frame_gen.ethernet rng :: underlay :: Frame_gen.udp_for rng (Some vxlan)
          :: vxlan :: f.Frame.headers)
          ~payload_len:f.Frame.payload_len
      else f)

(* Every snap length's records of the frames, written in turn through
   one reused [Pcap.Writer] and through [Pcapng_writer.of_frames], are
   the full-payload oracle's prefixes with the whole wire length. *)
let records_match_oracle seed =
  let frames = oracle_frames seed in
  let expected snaplen =
    List.map
      (fun f -> (Bytes.length (Oracle.encode f), Oracle.encode ~snaplen f))
      frames
  in
  let records packets =
    List.map (fun (p : Oracle.packet) -> (p.Oracle.orig_len, p.Oracle.data)) packets
  in
  List.for_all
    (fun snaplen ->
      let w = Pcap.Writer.create ~snaplen () in
      List.iter (fun f -> Pcap.Writer.add_frame w ~ts:1.0 f) frames;
      let timed = List.map (fun f -> (1.0, f)) frames in
      records (Oracle.pcap_packets (Pcap.Writer.contents w)) = expected snaplen
      && records (Oracle.pcapng_packets (Pcapng_writer.of_frames ~snaplen timed))
         = expected snaplen)
    snaplens

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"encode length equals wire_length" ~count:300
      (Frame_gen.frame_arb ())
      (fun f -> Bytes.length (Codec.encode f) = Frame.wire_length f);
    Test.make ~name:"random stacks validate" ~count:300 small_int (fun seed ->
        let rng = Netcore.Rng.create seed in
        match Frame.validate (Frame_gen.random_stack rng) with
        | Ok () -> true
        | Error _ -> false);
    Test.make ~name:"pcap roundtrip preserves bytes" ~count:100
      (Frame_gen.frame_arb ())
      (fun f ->
        let w = Pcap.Writer.create () in
        Pcap.Writer.add_frame w ~ts:1.0 f;
        match Oracle.pcap_packets (Pcap.Writer.contents w) with
        | [ p ] -> Bytes.equal p.Oracle.data (Codec.encode f)
        | _ -> false);
    Test.make ~name:"records are the full-payload oracle's prefix (snaplen 14..65535)"
      ~count:300 (int_range 1 1_000_000) records_match_oracle;
    Test.make ~name:"ipv4 checksum always valid" ~count:300
      (Frame_gen.frame_arb ())
      (fun f ->
        let b = Codec.encode f in
        (* Find the first IPv4 header by walking the declared stack. *)
        let rec find_ip pos = function
          | [] -> None
          | H.Ipv4 _ :: _ -> Some pos
          | h :: rest -> find_ip (pos + H.size h) rest
        in
        match find_ip 0 f.Frame.headers with
        | None -> true
        | Some pos ->
          Netcore.Checksum.ones_complement_sum b ~pos ~len:20 = 0xFFFF);
    (* A pseudo-header sum added after the fold finishes to the checksum
       of a fold started from it ([Oracle.ones_complement_sum]).  Ranges
       of zero bytes and of 0xFF bytes sum to 0 and 0xFFFF; pseudo sums
       run from 0 past 0xFFFF, as an IPv6 pseudo header's folded
       addresses plus protocol and length do. *)
    Test.make ~name:"pseudo sum added after the fold equals the folded-in sum"
      ~count:1000
      (quad (int_range 0 2) (int_range 0 100) (int_range 0 100)
         (oneof [ int_range 0 3; int_range 0xFFFC 0x10003; int_range 0 0x2FFFF ]))
      (fun (fill, pos, len, pseudo) ->
        let rng = Netcore.Rng.create ((pos * 101) + len) in
        let b =
          Bytes.init 200 (fun _ ->
              match fill with
              | 0 -> '\000'
              | 1 -> '\255'
              | _ -> Char.chr (Netcore.Rng.int rng 256))
        in
        Netcore.Checksum.finish
          (pseudo + Netcore.Checksum.ones_complement_sum b ~pos ~len)
        = Netcore.Checksum.finish (Oracle.ones_complement_sum ~initial:pseudo b ~pos ~len));
  ]

let suites =
  [
    ( "packet.frame",
      [
        Alcotest.test_case "validate accepts typical stacks" `Quick test_validate_accepts_typical;
        Alcotest.test_case "validate rejects malformed" `Quick test_validate_rejects_malformed;
        Alcotest.test_case "wire length and padding" `Quick test_wire_length_padding;
        Alcotest.test_case "accessors" `Quick test_accessors;
      ] );
    ( "packet.codec",
      [
        Alcotest.test_case "min frame size" `Quick test_encode_min_size;
        Alcotest.test_case "ethertype chain" `Quick test_encode_ethertype;
        Alcotest.test_case "ipv4 header fields" `Quick test_encode_ipv4_header;
        Alcotest.test_case "tcp checksum" `Quick test_encode_tcp_checksum;
        Alcotest.test_case "vlan chain" `Quick test_encode_vlan_chain;
        Alcotest.test_case "mpls bottom-of-stack" `Quick test_encode_mpls_bottom_of_stack;
      ] );
    ( "packet.pcap",
      [
        Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
        Alcotest.test_case "snaplen truncation" `Quick test_pcap_snaplen_truncation;
        Alcotest.test_case "bad magic" `Quick test_pcap_bad_magic;
        Alcotest.test_case "file io" `Quick test_pcap_file_io;
      ] );
    ( "packet.filter",
      [
        Alcotest.test_case "protocols" `Quick test_filter_protocols;
        Alcotest.test_case "hosts and ports" `Quick test_filter_hosts_ports;
        Alcotest.test_case "boolean structure" `Quick test_filter_boolean;
        Alcotest.test_case "frame length" `Quick test_filter_length;
        Alcotest.test_case "parse errors" `Quick test_filter_parse_errors;
        Alcotest.test_case "empty filter" `Quick test_filter_empty_is_true;
        Alcotest.test_case "to_string roundtrip" `Quick test_filter_to_string_roundtrip;
      ] );
    ("packet.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
