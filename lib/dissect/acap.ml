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

(* One frame's abstraction, overwritten frame after frame: the stack
   tokens, the tags, the innermost L3 header and L4 ports, the RST
   flag, and the flow key rendered into [key].  A digest fold hands it
   to its consumer as it stands; a record is built from it only where
   one is asked for.  So the stack and the key have one renderer each,
   over the one dissector walk. *)
module Fields = struct
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

  type t = {
    tokens : string vec;
    vlans : int vec;
    labels : int vec;
    mutable l3 : H.header;  (* the innermost IPv4/IPv6 header, if [has_l3] *)
    mutable has_l3 : bool;
    mutable text : (string * string) option;
        (* rendered endpoints given to {!make}, in place of [l3] *)
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
      tokens = vec 16 "";
      vlans = vec 4 0;
      labels = vec 4 0;
      l3 = H.Pseudowire;
      has_l3 = false;
      text = None;
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

  let reset f ~cap_len ~truncated =
    f.tokens.len <- 0;
    f.vlans.len <- 0;
    f.labels.len <- 0;
    f.has_l3 <- false;
    f.text <- None;
    f.has_l4 <- false;
    f.rst <- false;
    f.truncated <- truncated;
    f.cap_len <- cap_len

  let set_ports f ~src_port ~dst_port =
    f.has_l4 <- true;
    f.src_port <- src_port;
    f.dst_port <- dst_port

  let depth f = f.tokens.len
  let token f i = f.tokens.items.(i)
  let stack f = to_list f.tokens
  let tcp_rst f = f.rst
  let has_key f = f.has_l3 || Option.is_some f.text

  (* Top-level, not a local closure: it runs four times a frame. *)
  let rec has_token f tok i =
    i < depth f && (String.equal (token f i) tok || has_token f tok (i + 1))

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

  let add_endpoint b ~src = function
    | H.Ipv4 { src = s; dst = d; _ } ->
      Netcore.Ipv4_addr.add_to_buffer b (if src then s else d)
    | H.Ipv6 { src = s; dst = d; _ } ->
      Netcore.Ipv6_addr.add_to_buffer b (if src then s else d)
    | _ -> ()

  (* The flow key: a function of the tags, endpoints, stack and ports
     alone, rendered once per frame into [key], so no Printf and no
     intermediate list of strings. *)
  let render_key f =
    let b = f.key in
    Buffer.clear b;
    if has_key f then begin
      add_ints b f.vlans;
      Buffer.add_char b '|';
      add_ints b f.labels;
      Buffer.add_char b '|';
      f.src_at <- Buffer.length b;
      (match f.text with
      | Some (src, dst) ->
        Buffer.add_string b src;
        Buffer.add_char b '|';
        f.dst_at <- Buffer.length b;
        Buffer.add_string b dst
      | None ->
        add_endpoint b ~src:true f.l3;
        Buffer.add_char b '|';
        f.dst_at <- Buffer.length b;
        add_endpoint b ~src:false f.l3);
      f.dst_end <- Buffer.length b;
      Buffer.add_char b '|';
      Buffer.add_string b
        (if has_token f "tcp" 0 then "tcp"
         else if has_token f "udp" 0 then "udp"
         else if has_token f "icmp" 0 then "icmp"
         else if has_token f "icmpv6" 0 then "icmpv6"
         else "other");
      Buffer.add_char b '|';
      if f.has_l4 then begin
        add_int b f.src_port;
        Buffer.add_char b ':';
        add_int b f.dst_port
      end
      else Buffer.add_char b '-'
    end

  let key f = if has_key f then Some (Buffer.contents f.key) else None

  let endpoints f =
    if has_key f then
      ( Some (Buffer.sub f.key f.src_at (f.dst_at - 1 - f.src_at)),
        Some (Buffer.sub f.key f.dst_at (f.dst_end - f.dst_at)) )
    else (None, None)

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
    | H.Ipv4 _ | H.Ipv6 _ ->
      f.l3 <- h;
      f.has_l3 <- true
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
    walk f headers;
    render_key f

  let dissect f ~orig_len slice =
    let d = Dissector.dissect_slice ~orig_len slice in
    abstract f ~cap_len:(Packet.Slice.length slice) ~truncated:d.Dissector.truncated
      d.Dissector.headers
end

let of_fields (f : Fields.t) ~ts ~orig_len =
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
    key = Fields.key f;
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
  Fields.render_key f;
  {
    ts; orig_len; cap_len; stack; vlan_ids; mpls_labels; src; dst; l4; tcp_rst;
    truncated; key = Fields.key f;
  }

(* The key reads none of the stamped fields, so the copy keeps it. *)
let stamp r ~ts ~orig_len ~cap_len = { r with ts; orig_len; cap_len }

let flow_key r = r.key

let of_slice ~ts ~orig_len slice =
  let f = Fields.create () in
  Fields.dissect f ~orig_len slice;
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
