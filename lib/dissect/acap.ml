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

(* Decimal digits straight into the buffer, as [string_of_int] prints
   them, without building the string. *)
let rec add_nat b n =
  if n >= 10 then add_nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n >= 0 then add_nat b n else Buffer.add_string b (string_of_int n)

let add_int_list b = function
  | [] -> Buffer.add_char b '-'
  | v :: rest ->
    add_int b v;
    List.iter
      (fun v ->
        Buffer.add_char b ',';
        add_int b v)
      rest

(* The key's protocol field: any TCP header makes a frame "tcp", else
   any UDP header "udp", and so on. *)
let protos = [| "tcp"; "udp"; "icmp"; "icmpv6"; "other" |]
let other = 4

(* The key's last field, for a frame with ports ("-" without). *)
let add_ports b ~src_port ~dst_port =
  add_int b src_port;
  Buffer.add_char b ':';
  add_int b dst_port

(* --- the per-frame fields --------------------------------------- *)

(* One frame's abstraction, overwritten frame after frame, read off the
   dissector's tape where it lies: its tokens are the tape's kinds and
   the service its last header's port names, and its flow identity is
   written into a reused buffer; the key is rendered only when asked. *)
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

  (* Each token's [Hashtbl.hash], computed once, not per frame. *)
  let kind_codes = Array.map Hashtbl.hash D.kind_names
  let service_codes = Array.map (fun s -> Hashtbl.hash s.Services.service_name) Services.catalog

  (* The walk's tape; what the key is rendered from (the tags, the
     ports, the tape index of the innermost IP header or -1, and the
     protocol); and the flow identity, the first [id_len] bytes of
     [id]. *)
  type t = {
    tape : D.Tape.t;
    vlans : int vec;
    labels : int vec;
    mutable src_port : int;
    mutable dst_port : int;
    mutable has_l4 : bool;
    mutable rst : bool;
    mutable cap_len : int;
    mutable l3_at : int;
    mutable proto : int;  (* index into [protos] *)
    mutable id : bytes;
    mutable id_len : int;
    key : Buffer.t;
    (* where the endpoints sit in [key] *)
    mutable src_at : int;
    mutable dst_at : int;
    mutable dst_end : int;
  }

  let create () =
    {
      tape = D.Tape.create ();
      vlans = vec 4 0;
      labels = vec 4 0;
      src_port = 0;
      dst_port = 0;
      has_l4 = false;
      rst = false;
      cap_len = 0;
      l3_at = -1;
      proto = other;
      id = Bytes.empty;
      id_len = 0;
      key = Buffer.create 64;
      src_at = 0;
      dst_at = 0;
      dst_end = 0;
    }

  let set_ports f ~src_port ~dst_port =
    f.has_l4 <- true;
    f.src_port <- src_port;
    f.dst_port <- dst_port

  (* The tape's headers, then the service its last header names. *)
  let depth f = f.tape.D.Tape.length + if f.tape.D.Tape.service >= 0 then 1 else 0

  let token f i =
    let t = f.tape in
    if i < t.D.Tape.length then D.kind_names.(D.kind_index t.D.Tape.kinds.(i))
    else Services.catalog.(t.D.Tape.service).Services.service_name

  let code f i =
    let t = f.tape in
    if i < t.D.Tape.length then kind_codes.(D.kind_index t.D.Tape.kinds.(i))
    else service_codes.(t.D.Tape.service)

  let rec stack_from f i acc = if i < 0 then acc else stack_from f (i - 1) (token f i :: acc)
  let stack f = stack_from f (depth f - 1) []
  let tcp_rst f = f.rst
  let identity f = f.id
  let identity_length f = f.id_len
  let has_key f = f.l3_at >= 0

  (* --- the key --- *)

  let add_ints b v =
    if v.len = 0 then Buffer.add_char b '-'
    else
      for i = 0 to v.len - 1 do
        if i > 0 then Buffer.add_char b ',';
        add_int b v.items.(i)
      done

  let add_endpoint f ~src =
    let b = f.key and t = f.tape in
    let at = t.D.Tape.offs.(f.l3_at) and bytes = t.D.Tape.bytes in
    match t.D.Tape.kinds.(f.l3_at) with
    | D.Ipv4 ->
      Netcore.Ipv4_addr.add_to_buffer b
        (Netcore.Ipv4_addr.of_int32 (Bytes.get_int32_be bytes (at + if src then 12 else 16)))
    | _ ->
      let at = at + if src then 8 else 24 in
      Netcore.Ipv6_addr.add_to_buffer b
        (Netcore.Ipv6_addr.make (Bytes.get_int64_be bytes at) (Bytes.get_int64_be bytes (at + 8)))

  (* The flow key: a function of the tags, endpoints, protocol and
     ports alone, rendered into [key], so no Printf and no intermediate
     list of strings.  Only a frame with an IP header has one. *)
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
      Buffer.add_string b protos.(f.proto);
      Buffer.add_char b '|';
      if f.has_l4 then add_ports b ~src_port:f.src_port ~dst_port:f.dst_port
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

  (* --- a dissected frame --- *)

  let min_proto f p = if p < f.proto then f.proto <- p

  (* The tags, the innermost IP header and ports, the RST flag and the
     protocol, read off the tape in one pass. *)
  let scan f (t : D.Tape.t) =
    f.vlans.len <- 0;
    f.labels.len <- 0;
    f.has_l4 <- false;
    f.rst <- false;
    f.l3_at <- -1;
    f.proto <- other;
    for i = 0 to t.length - 1 do
      match t.kinds.(i) with
      | D.Vlan -> push f.vlans t.a.(i)
      | D.Mpls -> push f.labels t.a.(i)
      | D.Ipv4 | D.Ipv6 -> f.l3_at <- i
      | D.Tcp ->
        set_ports f ~src_port:t.a.(i) ~dst_port:t.b.(i);
        if Bytes.get_uint8 t.bytes (t.offs.(i) + 13) land 0x04 <> 0 then f.rst <- true;
        min_proto f 0
      | D.Udp ->
        set_ports f ~src_port:t.a.(i) ~dst_port:t.b.(i);
        min_proto f 1
      | D.Icmpv4 -> min_proto f 2
      | D.Icmpv6 -> min_proto f 3
      | _ -> ()
    done

  (* The flow identity: the bytes of what the key renders, in its
     order.  Each vid in two bytes and each label in three, each list
     ended by a value no tag holds; the innermost IP header's addresses
     as they sit on the wire, after its version; the protocol; and the
     ports, if any.  Equal identities render equal keys. *)
  let write_identity f (t : D.Tape.t) =
    let need = (2 * f.vlans.len) + (3 * f.labels.len) + 44 in
    if Bytes.length f.id < need then f.id <- Bytes.create (2 * need);
    let id = f.id in
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
    let at = t.offs.(f.l3_at) in
    (match t.kinds.(f.l3_at) with
    | D.Ipv4 ->
      Bytes.set_uint8 id !p 4;
      Bytes.blit t.bytes (at + 12) id (!p + 1) 8;
      p := !p + 9
    | _ ->
      Bytes.set_uint8 id !p 6;
      Bytes.blit t.bytes (at + 8) id (!p + 1) 32;
      p := !p + 33);
    Bytes.set_uint8 id !p f.proto;
    if f.has_l4 then begin
      Bytes.set_uint16_be id (!p + 1) f.src_port;
      Bytes.set_uint16_be id (!p + 3) f.dst_port;
      p := !p + 5
    end
    else p := !p + 1;
    f.id_len <- !p

  let dissect f bytes ~off ~cap_len ~orig_len =
    let t = f.tape in
    D.walk t bytes ~off ~cap_len ~orig_len;
    f.cap_len <- cap_len;
    scan f t;
    if f.l3_at >= 0 then write_identity f t else f.id_len <- 0
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
    truncated = f.Fields.tape.Dissector.Tape.truncated;
    key = Fields.rendered f;
  }

(* The key of given fields, in the format [Fields.render_key] writes:
   the protocol is the first of [protos] the stack names. *)
let render_key ~stack ~vlan_ids ~mpls_labels ~src ~dst ~l4 =
  match (src, dst) with
  | Some src, Some dst ->
    let b = Buffer.create 64 in
    add_int_list b vlan_ids;
    Buffer.add_char b '|';
    add_int_list b mpls_labels;
    Buffer.add_char b '|';
    Buffer.add_string b src;
    Buffer.add_char b '|';
    Buffer.add_string b dst;
    Buffer.add_char b '|';
    let rec proto p = if p = other || List.mem protos.(p) stack then p else proto (p + 1) in
    Buffer.add_string b protos.(proto 0);
    Buffer.add_char b '|';
    (match l4 with
    | Some (src_port, dst_port) -> add_ports b ~src_port ~dst_port
    | None -> Buffer.add_char b '-');
    Some (Buffer.contents b)
  | _ -> None

let make ~ts ~orig_len ~cap_len ~stack ~vlan_ids ~mpls_labels ~src ~dst ~l4
    ~tcp_rst ~truncated =
  {
    ts; orig_len; cap_len; stack; vlan_ids; mpls_labels; src; dst; l4; tcp_rst;
    truncated; key = render_key ~stack ~vlan_ids ~mpls_labels ~src ~dst ~l4;
  }

(* The key reads none of the stamped fields, so the copy keeps it. *)
let stamp r ~ts ~orig_len ~cap_len = { r with ts; orig_len; cap_len }

let flow_key r = r.key

(* One record per line; fields are tab-separated, list elements
   comma-separated, missing values are "-".  Serialization runs once
   per frame on the digest output path, so fields are written straight
   into one buffer with direct digit rendering instead of Printf
   (format interpretation and float boxing dominate the sprintf cost,
   as with Ipv4_addr.to_string). *)

let opt_str = function None -> "-" | Some s -> s

(* Fixed-point rendering equivalent to ["%.6f"] for the timestamps this
   code meets (non-negative, under 2^52 us, so [v *. 1e6] is off by
   < 0.5 from the exact product and rounding recovers the same
   microsecond count printf prints).  Anything outside that range, such
   as a pcapng timestamp in nanoseconds read as microseconds, falls back
   to Printf. *)
let buf_add_ts b v =
  if not (Float.is_finite v) || v < 0.0 || v *. 1e6 >= 0x1p52 then
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
