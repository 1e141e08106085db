module P4 = P4_pipeline
module H = Packet.Headers

let frame ?(vlan = Some 100) ?(dst_port = 443) ?(payload = 100) () =
  let base =
    [
      H.Ethernet
        { src = Netcore.Mac.of_int64 0x020000000001L;
          dst = Netcore.Mac.of_int64 0x020000000002L };
    ]
  in
  let tags =
    match vlan with
    | Some vid -> [ H.Vlan { pcp = 0; dei = false; vid } ]
    | None -> []
  in
  let rest =
    [
      H.Ipv4
        { src = Netcore.Ipv4_addr.of_string "10.5.0.1";
          dst = Netcore.Ipv4_addr.of_string "10.5.0.2";
          dscp = 0; ttl = 64; ident = 0; dont_fragment = false };
      H.Tcp
        { src_port = 50000; dst_port; seq = 0l; ack_seq = 0l;
          flags = H.flags_psh_ack; window = 64 };
    ]
  in
  Packet.Frame.make (base @ tags @ rest) ~payload_len:payload

let parse expr =
  match Packet.Filter.parse expr with Ok f -> f | Error m -> failwith (expr ^ ": " ^ m)

let forwards pipeline fr = (P4.process pipeline fr).P4.frame <> None

let matches f fr = Packet.Filter.matches ~wire_len:(Packet.Frame.wire_length fr) f fr

(* An entry matches with a filter expression: field equality, length
   ranges, negation and conjunctions. *)
let test_match_exprs () =
  let f = frame () in
  let accepts expr =
    forwards
      (P4.create
         [
           {
             P4.table_name = "t";
             entries = [ { P4.matches = parse expr; actions = [ P4.A_accept ] } ];
             default = [ P4.A_drop ];
           };
         ])
      f
  in
  Alcotest.(check bool) "eq" true (accepts "vlan 100");
  Alcotest.(check bool) "range" true (accepts "greater 100 and less 500");
  Alcotest.(check bool) "not" false (accepts "not ip");
  Alcotest.(check bool) "and/or" true (accepts "tcp and (dst port 80 or dst port 443)")

let test_first_match_wins () =
  let pipeline =
    P4.create
      [
        {
          P4.table_name = "t";
          entries =
            [
              { P4.matches = parse "dst port 443";
                actions = [ P4.A_count "first"; P4.A_drop ] };
              { P4.matches = Packet.Filter.True; actions = [ P4.A_count "second" ] };
            ];
          default = [ P4.A_count "default" ];
        };
      ]
  in
  ignore (P4.process pipeline (frame ~dst_port:443 ()));
  ignore (P4.process pipeline (frame ~dst_port:80 ()));
  Alcotest.(check int) "first entry hit once" 1 (P4.counter pipeline "first");
  Alcotest.(check int) "second entry hit once" 1 (P4.counter pipeline "second");
  Alcotest.(check int) "default never" 0 (P4.counter pipeline "default")

let test_drop_stops_pipeline () =
  let pipeline =
    P4.create
      [
        { P4.table_name = "a"; entries = []; default = [ P4.A_drop ] };
        { P4.table_name = "b"; entries = []; default = [ P4.A_count "reached" ] };
      ]
  in
  let v = P4.process pipeline (frame ()) in
  Alcotest.(check bool) "dropped" true (v.P4.frame = None);
  Alcotest.(check int) "second table not reached" 0 (P4.counter pipeline "reached")

let test_accept_skips_rest () =
  let pipeline =
    P4.create
      [
        { P4.table_name = "a"; entries = []; default = [ P4.A_accept ] };
        { P4.table_name = "b"; entries = []; default = [ P4.A_drop ] };
      ]
  in
  let v = P4.process pipeline (frame ()) in
  Alcotest.(check bool) "accepted despite later drop" true (v.P4.frame <> None)

let test_truncate_caps_bytes () =
  let pipeline =
    P4.create [ { P4.table_name = "t"; entries = []; default = [ P4.A_truncate 64 ] } ]
  in
  let v = P4.process pipeline (frame ~payload:1000 ()) in
  Alcotest.(check int) "64 bytes forwarded" 64 v.P4.forwarded_bytes;
  (* Small frames forward their own size. *)
  let v2 = P4.process pipeline (frame ~payload:0 ()) in
  Alcotest.(check int) "small frame unchanged" 60 v2.P4.forwarded_bytes

let test_systematic_sampling () =
  let pipeline =
    P4.create [ { P4.table_name = "s"; entries = []; default = [ P4.A_sample 5 ] } ]
  in
  let kept = ref 0 in
  for _ = 1 to 50 do
    if (P4.process pipeline (frame ())).P4.frame <> None then incr kept
  done;
  Alcotest.(check int) "exactly 1 in 5" 10 !kept

let test_anonymize_action () =
  let anon = Hostmodel.Anonymize.create ~key:3 in
  let pipeline =
    P4.create
      [ { P4.table_name = "e"; entries = []; default = [ P4.A_anonymize anon ] } ]
  in
  let v = P4.process pipeline (frame ()) in
  match v.P4.frame with
  | None -> Alcotest.fail "frame dropped"
  | Some out ->
    (* The verdict's length is taken once, before any action runs. *)
    Alcotest.(check int) "length kept" (Packet.Frame.wire_length out)
      v.P4.forwarded_bytes;
    let ip =
      List.find_map
        (function H.Ipv4 ip -> Some ip | _ -> None)
        out.Packet.Frame.headers
    in
    (match ip with
    | Some ip ->
      Alcotest.(check bool) "rewritten" false
        (Netcore.Ipv4_addr.equal ip.H.src (Netcore.Ipv4_addr.of_string "10.5.0.1"))
    | None -> Alcotest.fail "no ipv4")

(* [Compile.of_filter f] forwards a frame exactly when [f] matches it,
   on every frame of [frames] for every filter of [exprs]. *)
let check_offload_agrees exprs frames =
  List.iter
    (fun expr ->
      let f = parse expr in
      let pipeline = P4.Compile.of_filter f in
      let disagree =
        List.filter_map Fun.id
          (List.mapi
             (fun i fr ->
               if matches f fr = forwards pipeline fr then None
               else Some i)
             frames)
      in
      Alcotest.(check (list int)) (expr ^ ": frames the offload decides otherwise") []
        disagree)
    exprs

let test_compile_filter_equivalence () =
  check_offload_agrees
    [ "tcp"; "udp"; "ip"; "ip6"; "vlan 100"; "vlan 9"; "port 443"; "dst port 443";
      "src port 443"; "tcp and vlan 100"; "not udp"; "udp or port 443";
      "greater 100"; "less 100"; "tls"; "mpls" ]
    [ frame (); frame ~vlan:None ~dst_port:80 (); frame ~payload:0 () ]

(* [Stack_builder] templates (plain, VXLAN, PseudoWire and PseudoWire
   over VXLAN, for every service at two VLANs) and random stacks.  A filter
   reads every header of the stack: a VXLAN frame's outer UDP header
   matches [udp] and [port 4789], and [host] matches either of its IPv4
   headers. *)
let test_offload_forwards_filtered () =
  let rng = Netcore.Rng.create 11 in
  let templates =
    List.concat_map
      (fun (use_pseudowire, use_vxlan) ->
        List.concat_map
          (fun service ->
            List.map
              (fun vlan_id ->
                Packet.Frame.make
                  (Traffic.Stack_builder.forward rng
                     {
                       Traffic.Stack_builder.vlan_id;
                       mpls_labels = [ 48000 ];
                       use_pseudowire;
                       use_vxlan;
                       use_ipv6 = false;
                       service;
                     })
                  ~payload_len:(Netcore.Rng.int rng 1400))
              [ 100; 999 ])
          (Array.to_list Dissect.Services.catalog))
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  let random =
    List.init 200 (fun seed -> Frame_gen.random_frame (Frame_gen.rng_of_seed seed))
  in
  let frames = templates @ random in
  (* A VXLAN frame's underlay source: its first IPv4 header, not the
     innermost one. *)
  let underlay =
    List.find_map
      (fun (fr : Packet.Frame.t) ->
        if List.mem "vxlan" (Packet.Frame.tokens fr) then
          List.find_map
            (function H.Ipv4 ip -> Some ip.H.src | _ -> None)
            fr.Packet.Frame.headers
        else None)
      frames
    |> Option.get |> Netcore.Ipv4_addr.to_string
  in
  let exprs =
    [ "udp"; "not udp"; "port 4789"; "host " ^ underlay; "not host " ^ underlay;
      "vlan 100"; "tcp and port 443 and not vlan 999" ]
  in
  (* Every filter keeps some frames and drops others. *)
  List.iter
    (fun expr ->
      let kept = List.filter (matches (parse expr)) frames in
      Alcotest.(check bool) (expr ^ " splits the frames") true
        (kept <> [] && List.length kept < List.length frames))
    exprs;
  check_offload_agrees exprs frames

let test_compiled_offload_counts () =
  let filter =
    match Packet.Filter.parse "port 443" with Ok f -> f | Error m -> failwith m
  in
  let pipeline = P4.Compile.of_filter ~truncation:128 ~sample_1_in:2 filter in
  Alcotest.(check int) "three stages" 3 (P4.stage_count pipeline);
  let kept = ref 0 in
  for i = 1 to 20 do
    let dst_port = if i mod 2 = 0 then 443 else 80 in
    if (P4.process pipeline (frame ~dst_port ())).P4.frame <> None then incr kept
  done;
  Alcotest.(check int) "matched counter" 10 (P4.counter pipeline "filter.matched");
  Alcotest.(check int) "dropped counter" 10 (P4.counter pipeline "filter.dropped");
  Alcotest.(check int) "sampled half of matches" 5 (P4.counter pipeline "sample.kept");
  Alcotest.(check int) "kept" 5 !kept

let qcheck_pipeline_filter_agreement =
  QCheck.Test.make ~name:"compiled pipeline agrees with filter on generated frames"
    ~count:300 (Frame_gen.frame_arb ()) (fun f ->
      let filter =
        Packet.Filter.And
          (Packet.Filter.Proto "tcp", Packet.Filter.Not (Packet.Filter.Vlan None))
      in
      forwards (P4.Compile.of_filter filter) f = matches filter f)

let suites =
  [
    ( "p4.pipeline",
      [
        Alcotest.test_case "match expressions" `Quick test_match_exprs;
        Alcotest.test_case "first match wins" `Quick test_first_match_wins;
        Alcotest.test_case "drop stops pipeline" `Quick test_drop_stops_pipeline;
        Alcotest.test_case "accept skips rest" `Quick test_accept_skips_rest;
        Alcotest.test_case "truncate caps bytes" `Quick test_truncate_caps_bytes;
        Alcotest.test_case "systematic sampling" `Quick test_systematic_sampling;
        Alcotest.test_case "anonymize action" `Quick test_anonymize_action;
        Alcotest.test_case "filter compile equivalence" `Quick test_compile_filter_equivalence;
        Alcotest.test_case "offload forwards what the filter keeps" `Quick
          test_offload_forwards_filtered;
        Alcotest.test_case "compiled offload counters" `Quick test_compiled_offload_counts;
        QCheck_alcotest.to_alcotest qcheck_pipeline_filter_agreement;
      ] );
  ]
