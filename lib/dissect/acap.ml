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
  key : string option;
}

(* --- the per-frame fields --------------------------------------- *)

(* One frame's abstraction, overwritten frame after frame.  A dissected
   frame is read off the dissector's tape where it lies: its tokens are
   the tape's kinds and the service its last header's port names, and
   its flow identity is written into a reused buffer; the key is
   rendered only when asked.  The capture's class records and [make]
   fill the same fields from typed headers, and never allocate a tape.
   So the stack and the key have one renderer each. *)
module Fields = struct
  module D = Dissector

  (* A growable array, emptied per frame. *)
  type 'a vec = { mutable items : 'a array; mutable len : int }

  let vec n x = { items = Array.make n x; len = 0 }

  let push v x =
    if v.len = Array.length v.items then v.items <- Array.append v.items v.items;
    v.items.(v.len) <- x;
    v.len <- v.len + 1

  let rec to_list_from v i acc =
    if i < 0 then acc else to_list_from v (i - 1) (v.items.(i) :: acc)

  let to_list v = to_list_from v (v.len - 1) []

  (* The key's protocol field: any TCP header makes a frame "tcp",
     else any UDP header "udp", and so on. *)
  let protos = [| "tcp"; "udp"; "icmp"; "icmpv6"; "other" |]
  let other = 4

  (* Each token's [Hashtbl.hash], computed once, not per frame. *)
  let kind_codes = Array.map Hashtbl.hash D.kind_names
  let service_codes = Array.map (fun s -> Hashtbl.hash s.Services.service_name) Services.catalog

  (* A dissected frame's own part: the walk's tape, the catalog index
     of the service its last header's port names (or -1), the tape
     index of its innermost IP header (or -1), the key's protocol, and
     the flow identity, the first [id_len] bytes of [id]. *)
  type frame = {
    tape : D.Tape.t;
    mutable service : int;
    mutable l3_at : int;
    mutable proto : int;  (* index into [protos] *)
    mutable id : bytes;
    mutable id_len : int;
  }

  let new_frame () =
    { tape = D.Tape.create (); service = -1; l3_at = -1; proto = other; id = Bytes.empty; id_len = 0 }

  (* The frame part of fields that never dissected, as [make] and
     [of_frame] build them: their first [dissect] gives fields a frame
     part of their own, so the typed path allocates no tape and no
     identity buffer. *)
  let typed = new_frame ()

  type t = {
    mutable frame : frame;
    (* Typed headers, or [make]'s fields: the tokens, the innermost
       IPv4/IPv6 header (a [Pseudowire] for none), or the rendered
       endpoints in [text]. *)
    tokens : string vec;
    mutable l3 : H.header;
    mutable text : (string * string) option;
    (* Both: what the key is rendered from. *)
    vlans : int vec;
    labels : int vec;
    mutable src_port : int;
    mutable dst_port : int;
    mutable has_l4 : bool;
    mutable rst : bool;
    mutable truncated : bool;
    mutable cap_len : int;
    key : Buffer.t;
    (* where the endpoints sit in [key] *)
    mutable src_at : int;
    mutable dst_at : int;
    mutable dst_end : int;
  }

  let create () =
    {
      frame = typed;
      tokens = vec 16 "";
      l3 = H.Pseudowire;
      text = None;
      vlans = vec 4 0;
      labels = vec 4 0;
      src_port = 0;
      dst_port = 0;
      has_l4 = false;
      rst = false;
      truncated = false;
      cap_len = 0;
      key = Buffer.create 64;
      src_at = 0;
      dst_at = 0;
      dst_end = 0;
    }

  let dissected f = f.frame != typed

  let reset f ~cap_len ~truncated =
    f.vlans.len <- 0;
    f.labels.len <- 0;
    f.has_l4 <- false;
    f.rst <- false;
    f.truncated <- truncated;
    f.cap_len <- cap_len

  let set_ports f ~src_port ~dst_port =
    f.has_l4 <- true;
    f.src_port <- src_port;
    f.dst_port <- dst_port

  let depth f =
    if dissected f then f.frame.tape.D.Tape.length + if f.frame.service >= 0 then 1 else 0
    else f.tokens.len

  let token f i =
    let t = f.frame.tape in
    if not (dissected f) then f.tokens.items.(i)
    else if i < t.D.Tape.length then D.kind_names.(D.kind_index t.D.Tape.kinds.(i))
    else Services.catalog.(f.frame.service).Services.service_name

  let code f i =
    let t = f.frame.tape in
    if not (dissected f) then Hashtbl.hash f.tokens.items.(i)
    else if i < t.D.Tape.length then kind_codes.(D.kind_index t.D.Tape.kinds.(i))
    else service_codes.(f.frame.service)

  let rec stack_from f i acc = if i < 0 then acc else stack_from f (i - 1) (token f i :: acc)
  let stack f = stack_from f (depth f - 1) []
  let tcp_rst f = f.rst
  let identity f = f.frame.id
  let identity_length f = f.frame.id_len

  let has_key f =
    if dissected f then f.frame.l3_at >= 0
    else match f.l3 with H.Ipv4 _ | H.Ipv6 _ -> true | _ -> Option.is_some f.text

  (* The protocol of typed tokens: the first of [protos] among them. *)
  let rec has_token f tok i =
    i < f.tokens.len && (String.equal f.tokens.items.(i) tok || has_token f tok (i + 1))

  let rec proto_of_tokens f p =
    if p = other || has_token f protos.(p) 0 then p else proto_of_tokens f (p + 1)

  (* --- the key --- *)

  (* Decimal digits straight into the buffer, as [string_of_int] prints
     them, without building the string. *)
  let rec add_nat b n =
    if n >= 10 then add_nat b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

  let add_int b n = if n >= 0 then add_nat b n else Buffer.add_string b (string_of_int n)

  let add_ints b v =
    if v.len = 0 then Buffer.add_char b '-'
    else
      for i = 0 to v.len - 1 do
        if i > 0 then Buffer.add_char b ',';
        add_int b v.items.(i)
      done

  let add_endpoint f ~src =
    let b = f.key in
    match f.text with
    | Some (s, d) -> Buffer.add_string b (if src then s else d)
    | None when dissected f -> (
      let t = f.frame.tape and l3 = f.frame.l3_at in
      let at = t.D.Tape.offs.(l3) and bytes = t.D.Tape.bytes in
      match t.D.Tape.kinds.(l3) with
      | D.Ipv4 ->
        Netcore.Ipv4_addr.add_to_buffer b
          (Netcore.Ipv4_addr.of_int32 (Bytes.get_int32_be bytes (at + if src then 12 else 16)))
      | _ ->
        let at = at + if src then 8 else 24 in
        Netcore.Ipv6_addr.add_to_buffer b
          (Netcore.Ipv6_addr.make (Bytes.get_int64_be bytes at) (Bytes.get_int64_be bytes (at + 8))))
    | None -> (
      match f.l3 with
      | H.Ipv4 { src = s; dst = d; _ } ->
        Netcore.Ipv4_addr.add_to_buffer b (if src then s else d)
      | H.Ipv6 { src = s; dst = d; _ } ->
        Netcore.Ipv6_addr.add_to_buffer b (if src then s else d)
      | _ -> ())

  (* The flow key: a function of the tags, endpoints, protocol and
     ports alone, rendered into [key], so no Printf and no intermediate
     list of strings.  Only a frame with an IP header (or [make]'s
     endpoints) has one. *)
  let render_key f =
    let b = f.key in
    Buffer.clear b;
    if has_key f then begin
      add_ints b f.vlans;
      Buffer.add_char b '|';
      add_ints b f.labels;
      Buffer.add_char b '|';
      f.src_at <- Buffer.length b;
      add_endpoint f ~src:true;
      Buffer.add_char b '|';
      f.dst_at <- Buffer.length b;
      add_endpoint f ~src:false;
      f.dst_end <- Buffer.length b;
      Buffer.add_char b '|';
      Buffer.add_string b
        protos.(if dissected f then f.frame.proto else proto_of_tokens f 0);
      Buffer.add_char b '|';
      if f.has_l4 then begin
        add_int b f.src_port;
        Buffer.add_char b ':';
        add_int b f.dst_port
      end
      else Buffer.add_char b '-'
    end

  (* The key as [render_key] left it. *)
  let rendered f = if has_key f then Some (Buffer.contents f.key) else None

  let key f =
    render_key f;
    rendered f

  let endpoints f =
    if has_key f then
      ( Some (Buffer.sub f.key f.src_at (f.dst_at - 1 - f.src_at)),
        Some (Buffer.sub f.key f.dst_at (f.dst_end - f.dst_at)) )
    else (None, None)

  (* --- typed headers --- *)

  (* When dissection stopped at a bare TCP/UDP header, classify the
     payload above it by well-known port, as tshark does; the service
     token counts as one more "header" in the abstract stack. *)
  let add_service f l4 ~src_port ~dst_port =
    match Services.lookup l4 ~src_port ~dst_port with
    | Some s -> push f.tokens s.Services.service_name
    | None -> ()

  let add_header f h =
    push f.tokens (H.name h);
    match h with
    | H.Vlan { vid; _ } -> push f.vlans vid
    | H.Mpls { label; _ } -> push f.labels label
    | H.Ipv4 _ | H.Ipv6 _ -> f.l3 <- h
    | H.Tcp { src_port; dst_port; flags; _ } ->
      set_ports f ~src_port ~dst_port;
      if flags.H.rst then f.rst <- true
    | H.Udp { src_port; dst_port } -> set_ports f ~src_port ~dst_port
    | _ -> ()

  (* One left-to-right walk: tokens and tags append, and the
     innermost-wins fields (L3 endpoints, L4 ports) overwrite as the
     walk descends.  The last header names the service. *)
  let rec walk f = function
    | [] -> ()
    | [ h ] -> (
      add_header f h;
      match h with
      | H.Tcp { src_port; dst_port; _ } -> add_service f Services.Tcp ~src_port ~dst_port
      | H.Udp { src_port; dst_port } -> add_service f Services.Udp ~src_port ~dst_port
      | _ -> ())
    | h :: rest ->
      add_header f h;
      walk f rest

  let abstract f ~cap_len ~truncated headers =
    reset f ~cap_len ~truncated;
    f.tokens.len <- 0;
    f.l3 <- H.Pseudowire;
    f.text <- None;
    walk f headers

  (* --- a dissected frame --- *)

  let min_proto fr p = if p < fr.proto then fr.proto <- p

  (* The tags, the innermost IP header and ports, the RST flag and the
     protocol, read off the tape in one pass. *)
  let scan f fr (t : D.Tape.t) =
    fr.l3_at <- -1;
    fr.proto <- other;
    for i = 0 to t.length - 1 do
      match t.kinds.(i) with
      | D.Vlan -> push f.vlans t.a.(i)
      | D.Mpls -> push f.labels t.a.(i)
      | D.Ipv4 | D.Ipv6 -> fr.l3_at <- i
      | D.Tcp ->
        set_ports f ~src_port:t.a.(i) ~dst_port:t.b.(i);
        if Bytes.get_uint8 t.bytes (t.offs.(i) + 13) land 0x04 <> 0 then f.rst <- true;
        min_proto fr 0
      | D.Udp ->
        set_ports f ~src_port:t.a.(i) ~dst_port:t.b.(i);
        min_proto fr 1
      | D.Icmpv4 -> min_proto fr 2
      | D.Icmpv6 -> min_proto fr 3
      | _ -> ()
    done;
    fr.service <-
      (if t.length = 0 then -1
       else
         match t.kinds.(t.length - 1) with
         | D.Tcp -> Services.lookup_index Services.Tcp ~src_port:f.src_port ~dst_port:f.dst_port
         | D.Udp -> Services.lookup_index Services.Udp ~src_port:f.src_port ~dst_port:f.dst_port
         | _ -> -1)

  (* The flow identity: the bytes of what the key renders, in its
     order.  Each vid in two bytes and each label in three, each list
     ended by a value no tag holds; the innermost IP header's addresses
     as they sit on the wire, after its version; the protocol; and the
     ports, if any.  Equal identities render equal keys. *)
  let write_identity f fr (t : D.Tape.t) =
    let need = (2 * f.vlans.len) + (3 * f.labels.len) + 44 in
    if Bytes.length fr.id < need then fr.id <- Bytes.create (2 * need);
    let id = fr.id in
    let p = ref 0 in
    for i = 0 to f.vlans.len - 1 do
      Bytes.set_uint16_be id !p f.vlans.items.(i);
      p := !p + 2
    done;
    Bytes.set_uint16_be id !p 0xFFFF;
    p := !p + 2;
    for i = 0 to f.labels.len - 1 do
      let label = f.labels.items.(i) in
      Bytes.set_uint8 id !p (label lsr 16);
      Bytes.set_uint16_be id (!p + 1) (label land 0xFFFF);
      p := !p + 3
    done;
    Bytes.set_uint8 id !p 0xFF;
    Bytes.set_uint16_be id (!p + 1) 0xFFFF;
    p := !p + 3;
    let at = t.offs.(fr.l3_at) in
    (match t.kinds.(fr.l3_at) with
    | D.Ipv4 ->
      Bytes.set_uint8 id !p 4;
      Bytes.blit t.bytes (at + 12) id (!p + 1) 8;
      p := !p + 9
    | _ ->
      Bytes.set_uint8 id !p 6;
      Bytes.blit t.bytes (at + 8) id (!p + 1) 32;
      p := !p + 33);
    Bytes.set_uint8 id !p fr.proto;
    if f.has_l4 then begin
      Bytes.set_uint16_be id (!p + 1) f.src_port;
      Bytes.set_uint16_be id (!p + 3) f.dst_port;
      p := !p + 5
    end
    else p := !p + 1;
    fr.id_len <- !p

  let dissect f bytes ~off ~cap_len ~orig_len =
    if not (dissected f) then f.frame <- new_frame ();
    let fr = f.frame in
    let t = fr.tape in
    D.walk t bytes ~off ~cap_len ~orig_len;
    reset f ~cap_len ~truncated:t.D.Tape.truncated;
    scan f fr t;
    if fr.l3_at >= 0 then write_identity f fr t else fr.id_len <- 0
end

let of_fields (f : Fields.t) ~ts ~orig_len =
  Fields.render_key f;
  let src, dst = Fields.endpoints f in
  {
    ts;
    orig_len;
    cap_len = f.Fields.cap_len;
    stack = Fields.stack f;
    vlan_ids = Fields.to_list f.Fields.vlans;
    mpls_labels = Fields.to_list f.Fields.labels;
    src;
    dst;
    l4 = (if f.Fields.has_l4 then Some (f.Fields.src_port, f.Fields.dst_port) else None);
    tcp_rst = f.Fields.rst;
    truncated = f.Fields.truncated;
    key = Fields.rendered f;
  }

let make ~ts ~orig_len ~cap_len ~stack ~vlan_ids ~mpls_labels ~src ~dst ~l4
    ~tcp_rst ~truncated =
  let f = Fields.create () in
  List.iter (Fields.push f.Fields.tokens) stack;
  List.iter (Fields.push f.Fields.vlans) vlan_ids;
  List.iter (Fields.push f.Fields.labels) mpls_labels;
  (match (src, dst) with
  | Some s, Some d -> f.Fields.text <- Some (s, d)
  | _ -> ());
  Option.iter (fun (src_port, dst_port) -> Fields.set_ports f ~src_port ~dst_port) l4;
  {
    ts; orig_len; cap_len; stack; vlan_ids; mpls_labels; src; dst; l4; tcp_rst;
    truncated; key = Fields.key f;
  }

(* The key reads none of the stamped fields, so the copy keeps it. *)
let stamp r ~ts ~orig_len ~cap_len = { r with ts; orig_len; cap_len }

let flow_key r = r.key

let of_slice ~ts ~orig_len slice =
  let f = Fields.create () in
  Fields.dissect f (Packet.Slice.buffer slice) ~off:(Packet.Slice.offset slice)
    ~cap_len:(Packet.Slice.length slice) ~orig_len;
  of_fields f ~ts ~orig_len

let of_entry buf (e : Packet.Pcap.index_entry) =
  of_slice ~ts:e.Packet.Pcap.ts ~orig_len:e.Packet.Pcap.orig_len
    (Packet.Pcap.Reader.slice buf e)

let of_frame ~ts (frame : Packet.Frame.t) =
  let len = Packet.Frame.wire_length frame in
  let f = Fields.create () in
  Fields.abstract f ~cap_len:len ~truncated:false frame.headers;
  of_fields f ~ts ~orig_len:len

(* One record per line; fields are tab-separated, list elements
   comma-separated, missing values are "-".  Serialization runs once
   per frame on the digest output path, so fields are written straight
   into one buffer with direct digit rendering instead of Printf
   (format interpretation and float boxing dominate the sprintf cost,
   as with Ipv4_addr.to_string). *)

let opt_str = function None -> "-" | Some s -> s

let add_int_list b = function
  | [] -> Buffer.add_char b '-'
  | v :: rest ->
    Fields.add_int b v;
    List.iter
      (fun v ->
        Buffer.add_char b ',';
        Fields.add_int b v)
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
  add_int_list b r.vlan_ids;
  Buffer.add_char b '\t';
  add_int_list b r.mpls_labels;
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
