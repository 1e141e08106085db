module H = Packet.Headers

type record = {
  ts : float;
  orig_len : int;
  cap_len : int;
  stack : string list;
  vlan_ids : int list;
  mpls_labels : int list;
  src : string option;
  dst : string option;
  l4 : (int * int) option;
  tcp_rst : bool;
  truncated : bool;
}

(* When dissection stopped at a bare TCP/UDP header, classify the
   payload above it by well-known port, as tshark does; the service
   token counts as one more "header" in the abstract stack. *)
let service_token (last : H.header option) =
  match last with
  | Some (H.Tcp { src_port; dst_port; _ }) ->
    Option.map
      (fun s -> s.Services.service_name)
      (Services.lookup Services.Tcp ~src_port ~dst_port)
  | Some (H.Udp { src_port; dst_port }) ->
    Option.map
      (fun s -> s.Services.service_name)
      (Services.lookup Services.Udp ~src_port ~dst_port)
  | _ -> None

(* One left-to-right walk collects everything the record needs: the
   header list is consed back-to-front and innermost-wins fields (L3
   endpoints, L4 ports) simply overwrite as the walk descends, so the
   single fold produces exactly what six separate walks used to.  The
   innermost IP is rendered once, after the walk. *)
let abstract ~ts ~orig_len ~cap_len ~truncated (headers : H.header list) =
  let rec walk stack_rev vlans_rev mpls_rev l3 l4 rst last = function
    | [] ->
      let stack =
        List.rev
          (match service_token last with
          | Some token -> token :: stack_rev
          | None -> stack_rev)
      in
      let src, dst =
        match l3 with
        | Some (H.Ipv4 { src; dst; _ }) ->
          (Some (Netcore.Ipv4_addr.to_string src),
           Some (Netcore.Ipv4_addr.to_string dst))
        | Some (H.Ipv6 { src; dst; _ }) ->
          (Some (Netcore.Ipv6_addr.to_string src),
           Some (Netcore.Ipv6_addr.to_string dst))
        | _ -> (None, None)
      in
      {
        ts; orig_len; cap_len; stack;
        vlan_ids = List.rev vlans_rev;
        mpls_labels = List.rev mpls_rev;
        src; dst; l4; tcp_rst = rst; truncated;
      }
    | h :: rest ->
      let stack_rev = H.name h :: stack_rev in
      let vlans_rev =
        match h with H.Vlan { vid; _ } -> vid :: vlans_rev | _ -> vlans_rev
      in
      let mpls_rev =
        match h with H.Mpls { label; _ } -> label :: mpls_rev | _ -> mpls_rev
      in
      let l3 = match h with H.Ipv4 _ | H.Ipv6 _ -> Some h | _ -> l3 in
      let l4 =
        match h with
        | H.Tcp { src_port; dst_port; _ } | H.Udp { src_port; dst_port } ->
          Some (src_port, dst_port)
        | _ -> l4
      in
      let rst =
        match h with H.Tcp { flags; _ } -> rst || flags.rst | _ -> rst
      in
      walk stack_rev vlans_rev mpls_rev l3 l4 rst (Some h) rest
  in
  walk [] [] [] None None false None headers

let of_packet (p : Packet.Pcap.packet) =
  let d = Dissector.dissect_packet p in
  abstract ~ts:p.ts ~orig_len:p.orig_len ~cap_len:(Bytes.length p.data)
    ~truncated:d.truncated d.headers

let of_slice ~ts ~orig_len slice =
  let d = Dissector.dissect_slice ~orig_len slice in
  abstract ~ts ~orig_len ~cap_len:(Packet.Slice.length slice)
    ~truncated:d.truncated d.headers

let of_entry buf (e : Packet.Pcap.index_entry) =
  of_slice ~ts:e.Packet.Pcap.ts ~orig_len:e.Packet.Pcap.orig_len
    (Packet.Pcap.Reader.slice buf e)

let of_frame ~ts (frame : Packet.Frame.t) =
  let len = Packet.Frame.wire_length frame in
  abstract ~ts ~orig_len:len ~cap_len:len ~truncated:false frame.headers

(* One record per line; fields are tab-separated, list elements
   comma-separated, missing values are "-".  Serialization runs once
   per frame on the digest output path, so fields are written straight
   into one buffer with direct digit rendering instead of Printf
   (format interpretation and float boxing dominate the sprintf cost,
   as with Ipv4_addr.to_string). *)

let opt_str = function None -> "-" | Some s -> s

let buf_add_ints b sep = function
  | [] -> Buffer.add_char b '-'
  | v :: rest ->
    Buffer.add_string b (string_of_int v);
    List.iter
      (fun v ->
        Buffer.add_char b sep;
        Buffer.add_string b (string_of_int v))
      rest

(* Fixed-point rendering equivalent to ["%.6f"] for the timestamps this
   code meets (non-negative, well under 2^52 us, so [v *. 1e6] is off
   by < 0.5 from the exact product and rounding recovers the same
   microsecond count printf prints).  Anything outside that range falls
   back to Printf. *)
let buf_add_ts b v =
  if not (Float.is_finite v) || v < 0.0 || v >= 1e15 then
    Buffer.add_string b (Printf.sprintf "%.6f" v)
  else begin
    let total = Int64.of_float (Float.round (v *. 1e6)) in
    let sec = Int64.div total 1_000_000L in
    let usec = Int64.to_int (Int64.rem total 1_000_000L) in
    Buffer.add_string b (Int64.to_string sec);
    Buffer.add_char b '.';
    let digits = Bytes.create 6 in
    let rec fill i u =
      if i >= 0 then begin
        Bytes.unsafe_set digits i (Char.unsafe_chr (48 + (u mod 10)));
        fill (i - 1) (u / 10)
      end
    in
    fill 5 usec;
    Buffer.add_bytes b digits
  end

let to_line r =
  let b = Buffer.create 96 in
  buf_add_ts b r.ts;
  Buffer.add_char b '\t';
  Buffer.add_string b (string_of_int r.orig_len);
  Buffer.add_char b '\t';
  Buffer.add_string b (string_of_int r.cap_len);
  Buffer.add_char b '\t';
  (match r.stack with
  | [] -> ()
  | tok :: rest ->
    Buffer.add_string b tok;
    List.iter
      (fun tok ->
        Buffer.add_char b ',';
        Buffer.add_string b tok)
      rest);
  Buffer.add_char b '\t';
  buf_add_ints b ',' r.vlan_ids;
  Buffer.add_char b '\t';
  buf_add_ints b ',' r.mpls_labels;
  Buffer.add_char b '\t';
  Buffer.add_string b (opt_str r.src);
  Buffer.add_char b '\t';
  Buffer.add_string b (opt_str r.dst);
  Buffer.add_char b '\t';
  (match r.l4 with
  | None -> Buffer.add_char b '-'
  | Some (s, d) ->
    Buffer.add_string b (string_of_int s);
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int d));
  Buffer.add_char b '\t';
  Buffer.add_char b (if r.tcp_rst then 'R' else '-');
  Buffer.add_char b '\t';
  Buffer.add_char b (if r.truncated then 'T' else '-');
  Buffer.contents b

let parse_opt = function "-" -> None | s -> Some s

let parse_ints = function
  | "-" -> []
  | s -> List.map int_of_string (String.split_on_char ',' s)

let of_line line =
  match String.split_on_char '\t' line with
  | [ ts; orig_len; cap_len; stack; vlans; mplss; src; dst; l4; rst; trunc ] -> (
    try
      Ok
        {
          ts = float_of_string ts;
          orig_len = int_of_string orig_len;
          cap_len = int_of_string cap_len;
          stack = (if stack = "" then [] else String.split_on_char ',' stack);
          vlan_ids = parse_ints vlans;
          mpls_labels = parse_ints mplss;
          src = parse_opt src;
          dst = parse_opt dst;
          l4 =
            (match l4 with
            | "-" -> None
            | s -> (
              match String.split_on_char ',' s with
              | [ a; b ] -> Some (int_of_string a, int_of_string b)
              | _ -> failwith "bad l4"));
          tcp_rst = rst = "R";
          truncated = trunc = "T";
        }
    with Failure msg -> Error ("Acap.of_line: " ^ msg))
  | _ -> Error "Acap.of_line: wrong field count"

(* Runs once per frame in every shard add, so the key is written
   directly into one buffer — no Printf, no intermediate
   list-of-strings. *)
let flow_key r =
  match (r.src, r.dst) with
  | Some src, Some dst ->
    let proto =
      if List.mem "tcp" r.stack then "tcp"
      else if List.mem "udp" r.stack then "udp"
      else if List.mem "icmp" r.stack then "icmp"
      else if List.mem "icmpv6" r.stack then "icmpv6"
      else "other"
    in
    let b = Buffer.create 64 in
    buf_add_ints b ',' r.vlan_ids;
    Buffer.add_char b '|';
    buf_add_ints b ',' r.mpls_labels;
    Buffer.add_char b '|';
    Buffer.add_string b src;
    Buffer.add_char b '|';
    Buffer.add_string b dst;
    Buffer.add_char b '|';
    Buffer.add_string b proto;
    Buffer.add_char b '|';
    (match r.l4 with
    | None -> Buffer.add_char b '-'
    | Some (s, d) ->
      Buffer.add_string b (string_of_int s);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int d));
    Some (Buffer.contents b)
  | _ -> None
