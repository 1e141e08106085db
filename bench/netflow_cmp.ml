(* §4 "Asymmetry in general profiling": NetFlow-style export vs
   Patchwork's data-plane capture on the same port.

   Two slices reuse the same 10.x addressing (FABRIC slices routinely
   do).  NetFlow's 5-tuple records merge them; Patchwork's flow
   classification keys on the virtualization tags and keeps them apart —
   and only the capture sees encapsulation stacks and frame sizes at
   all. *)

module Switch = Testbed.Switch
module Flow_model = Traffic.Flow_model

let make_slice_flow ~flow_id ~vlan rng =
  (* Both slices run the identical experiment: same subnet, same ports. *)
  let module H = Packet.Headers in
  let template =
    [
      H.Ethernet { src = Netcore.Mac.random rng; dst = Netcore.Mac.random rng };
      H.Vlan { pcp = 0; dei = false; vid = vlan };
      H.Mpls { label = 10_000 + vlan; tc = 0; ttl = 64 };
      H.Ipv4
        { src = Netcore.Ipv4_addr.of_string "10.0.1.10";
          dst = Netcore.Ipv4_addr.of_string "10.0.1.20";
          dscp = 0; ttl = 64; ident = 0; dont_fragment = true };
      H.Tcp
        { src_port = 41000; dst_port = 5201; seq = 0l; ack_seq = 0l;
          flags = H.flags_psh_ack; window = 512 };
    ]
  in
  Flow_model.make ~flow_id ~template
    ~frame_size:(Netcore.Dist.Empirical [| (0.9, 1948.0); (0.1, 66.0) |])
    ~avg_frame_size:1760.0 ~byte_rate:2e8 ~start_time:0.0 ~duration:600.0 ()

let run () =
  Paper.section "§4 comparison: NetFlow export vs Patchwork capture";
  let engine = Simcore.Engine.create () in
  let sw = Switch.create engine ~site_name:"CMP" ~ports:4 ~line_rate:100e9 in
  let rng = Netcore.Rng.create 5 in
  let flow_a = make_slice_flow ~flow_id:1 ~vlan:100 rng in
  let flow_b = make_slice_flow ~flow_id:2 ~vlan:200 rng in
  let attach (spec : Flow_model.spec) =
    Switch.attach_flow sw ~port:0 ~dir:Switch.Rx ~byte_rate:spec.Flow_model.byte_rate
      ~frame_rate:(Flow_model.frame_rate spec) ~flow:spec.Flow_model.flow_id
  in
  attach flow_a;
  attach flow_b;
  let resolver = function 1 -> Some flow_a | 2 -> Some flow_b | _ -> None in
  (* NetFlow view. *)
  let nf =
    Traffic.Netflow.export ~resolver sw ~port:0 ~start_time:0.0 ~end_time:20.0
  in
  Paper.row "NetFlow records on the port: %d" (Traffic.Netflow.distinct_flows nf);
  List.iter
    (fun (r : Traffic.Netflow.record) ->
      Paper.row "  %s:%d -> %s:%d proto %d: %.0f packets, %.2e bytes"
        r.Traffic.Netflow.nf_src r.Traffic.Netflow.nf_src_port
        r.Traffic.Netflow.nf_dst r.Traffic.Netflow.nf_dst_port
        r.Traffic.Netflow.nf_proto r.Traffic.Netflow.nf_packets
        r.Traffic.Netflow.nf_bytes)
    nf;
  (* Patchwork view: capture the mirrored port and classify flows. *)
  (match Switch.add_mirror sw ~src_port:0 ~dirs:Switch.Both ~dst_port:3 with
  | Error m -> Paper.row "mirror failed: %s" m
  | Ok _mirror ->
    (* Each frame abstracted from its stored bytes, as the digest reads
       a capture snapped at 200 bytes. *)
    let fields = Dissect.Acap.Fields.create () in
    let acaps = ref [] in
    List.iter
      (fun spec ->
        List.iter
          (fun (ts, frame) ->
            let bytes = Packet.Codec.encode ~limit:200 frame
            and orig_len = Packet.Frame.wire_length frame in
            Dissect.Acap.Fields.dissect fields bytes ~off:0 ~cap_len:(Bytes.length bytes)
              ~orig_len;
            acaps := Dissect.Acap.of_fields fields ~ts ~orig_len :: !acaps)
          (Flow_model.frames_in_window spec (Netcore.Rng.create 6) ~start_time:0.0
             ~end_time:2.0))
      [ flow_a; flow_b ];
    let profile = Analysis.Profile.of_records !acaps in
    Paper.row "Patchwork distinct flows (tag-aware keys): %d"
      (List.length profile.Analysis.Profile.flow_summaries);
    let fr = Netcore.Histogram.fractions profile.Analysis.Profile.size_histogram in
    Paper.row "Patchwork additionally sees: %d-deep stacks, %.0f%% jumbo frames"
      (List.fold_left
         (fun acc (r : Dissect.Acap.record) ->
           max acc (List.length r.Dissect.Acap.stack))
         0 !acaps)
      (100.0 *. (fr.(6) +. fr.(7) +. fr.(8))));
  Paper.row
    "paper: switch-side standards 'do not distinguish between testbed users and provide coarse statistics'.";
  Paper.row
    "measured: NetFlow merges the two slices into one record; the capture keeps them apart and retains wire detail."
