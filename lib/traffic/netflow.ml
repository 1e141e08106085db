module H = Packet.Headers

type record = {
  nf_src : string;
  nf_dst : string;
  nf_proto : int;
  nf_src_port : int;
  nf_dst_port : int;
  nf_packets : float;
  nf_bytes : float;
  nf_first : float;
  nf_last : float;
}

let key r =
  Printf.sprintf "%s|%s|%d|%d|%d" r.nf_src r.nf_dst r.nf_proto r.nf_src_port
    r.nf_dst_port

(* The innermost L3/L4 of a template, as the exporter would key it.
   Outer tunnel headers are what a v5 exporter on the physical port sees
   first, but FABRIC's tags (VLAN/MPLS/PW) are below NetFlow's keys
   either way; we expose the experiment's 5-tuple. *)
let tuple_of_template headers =
  let src = ref "" and dst = ref "" in
  let proto = ref 0 and sport = ref 0 and dport = ref 0 in
  List.iter
    (fun (h : H.header) ->
      match h with
      | H.Ipv4 ip ->
        src := Netcore.Ipv4_addr.to_string ip.H.src;
        dst := Netcore.Ipv4_addr.to_string ip.H.dst
      | H.Ipv6 ip ->
        src := Netcore.Ipv6_addr.to_string ip.H.src;
        dst := Netcore.Ipv6_addr.to_string ip.H.dst
      | H.Tcp t ->
        proto := 6;
        sport := t.H.src_port;
        dport := t.H.dst_port
      | H.Udp u ->
        proto := 17;
        sport := u.H.src_port;
        dport := u.H.dst_port
      | _ -> ())
    headers;
  (!src, !dst, !proto, !sport, !dport)

let export ~resolver sw ~port ~start_time ~end_time =
  let table : (string, record) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a : Testbed.Switch.attachment) ->
      match resolver a.Testbed.Switch.flow with
      | None -> ()
      | Some (spec : Flow_model.spec) ->
        let t0 = Float.max start_time spec.Flow_model.start_time in
        let t1 = Float.min end_time (Flow_model.end_time spec) in
        if t1 > t0 then begin
          let nf_src, nf_dst, nf_proto, nf_src_port, nf_dst_port =
            tuple_of_template spec.Flow_model.template
          in
          if nf_src <> "" then begin
            let bytes = spec.Flow_model.byte_rate *. (t1 -. t0) in
            let packets = Flow_model.frame_rate spec *. (t1 -. t0) in
            let fresh =
              { nf_src; nf_dst; nf_proto; nf_src_port; nf_dst_port;
                nf_packets = packets; nf_bytes = bytes; nf_first = t0; nf_last = t1 }
            in
            let k = key fresh in
            match Hashtbl.find_opt table k with
            | None -> Hashtbl.add table k fresh
            | Some existing ->
              (* The collision the paper warns about: flows from
                 different slices with the same 5-tuple merge. *)
              Hashtbl.replace table k
                {
                  existing with
                  nf_packets = existing.nf_packets +. packets;
                  nf_bytes = existing.nf_bytes +. bytes;
                  nf_first = Float.min existing.nf_first t0;
                  nf_last = Float.max existing.nf_last t1;
                }
          end
        end)
    (Testbed.Switch.attachments sw ~port);
  Hashtbl.fold (fun _ r acc -> r :: acc) table []
  |> List.sort (fun a b -> compare b.nf_bytes a.nf_bytes)

let distinct_flows records = List.length records
