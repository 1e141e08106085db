open Netcore

let magic_be = 0xA1B2C3D4l
let magic_le = 0xD4C3B2A1l
let linktype_ethernet = 1l

let default_snaplen = 65535

let global_header_length = 24

module Writer = struct
  (* The file's bytes so far, in one growable buffer that every record
     is encoded straight into. *)
  type t = { snaplen : int; w : Wire.Writer.t; mutable count : int }

  let create ?(snaplen = default_snaplen) () =
    if snaplen <= 0 then invalid_arg "Pcap.Writer.create: snaplen must be positive";
    let w = Wire.Writer.create ~capacity:global_header_length () in
    Wire.Writer.u32 w magic_be;
    Wire.Writer.u16 w 2 (* version major *);
    Wire.Writer.u16 w 4 (* version minor *);
    Wire.Writer.u32 w 0l (* thiszone *);
    Wire.Writer.u32 w 0l (* sigfigs *);
    Wire.Writer.u32 w (Int32.of_int snaplen);
    Wire.Writer.u32 w linktype_ethernet;
    { snaplen; w; count = 0 }

  (* A 32-bit field as two 16-bit halves, so no [int32] is boxed. *)
  let u32 w v =
    Wire.Writer.u16 w (v lsr 16);
    Wire.Writer.u16 w v

  (* Append the 16-byte header of a record of [orig_len] wire bytes
     whose first [incl_len] follow it. *)
  let add_header t ~ts ~orig_len ~incl_len =
    let sec = int_of_float ts in
    (* Round (not truncate) to the nearest microsecond: truncation biases
       every timestamp down by up to 1us.  Rounding near a whole second can
       then yield usec = 1_000_000 (e.g. ts = Float.pred 2.0); carry it
       into sec so the field stays in [0, 999999]. *)
    let usec = int_of_float (Float.round ((ts -. float_of_int sec) *. 1e6)) in
    let sec, usec =
      if usec >= 1_000_000 then (sec + 1, usec - 1_000_000)
      else (sec, max 0 usec)
    in
    u32 t.w sec;
    u32 t.w usec;
    u32 t.w incl_len;
    u32 t.w orig_len;
    t.count <- t.count + 1

  let add t ~ts ?orig_len data =
    let orig_len = match orig_len with Some l -> l | None -> Bytes.length data in
    if orig_len < 0 then invalid_arg "Pcap.Writer.add: negative orig_len";
    (* The spec requires incl_len <= orig_len: a caller claiming fewer
       original bytes than it hands us gets the excess dropped. *)
    let incl_len = min (min (Bytes.length data) t.snaplen) orig_len in
    add_header t ~ts ~orig_len ~incl_len;
    Wire.Writer.subbytes t.w data ~pos:0 ~len:incl_len

  let add_frame t ~ts frame =
    let orig_len = Frame.wire_length frame in
    add_header t ~ts ~orig_len ~incl_len:(min t.snaplen orig_len);
    Codec.encode_into t.w ~limit:t.snaplen frame

  let add_stamp t ~ts template ~ident ~seq ~payload_len =
    let orig_len = Codec.wire_length template ~payload_len in
    add_header t ~ts ~orig_len ~incl_len:(min t.snaplen orig_len);
    Codec.stamp_into t.w template ~ident ~seq ~payload_len ~limit:t.snaplen

  let record_length t ~wire_len = 16 + min t.snaplen wire_len
  let reserve t n = Wire.Writer.reserve t.w n
  let packet_count t = t.count

  (* A buffer written to its last byte is handed over as it is: a later
     record would move the writer to new storage, never write into it. *)
  let contents t =
    let buf = Wire.Writer.buffer t.w in
    if Bytes.length buf = Wire.Writer.length t.w then buf else Wire.Writer.contents t.w

  let to_file t path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output oc (Wire.Writer.buffer t.w) 0 (Wire.Writer.length t.w))
end

module Reader = struct
  exception Malformed of string

  type endian = Big | Little

  let u32 endian buf pos =
    match endian with
    | Big ->
      Int32.logor
        (Int32.shift_left (Int32.of_int (Bytes.get_uint16_be buf pos)) 16)
        (Int32.of_int (Bytes.get_uint16_be buf (pos + 2)))
    | Little ->
      Int32.logor
        (Int32.shift_left (Int32.of_int (Bytes.get_uint16_le buf (pos + 2))) 16)
        (Int32.of_int (Bytes.get_uint16_le buf pos))

  (* Record-header fields are unsigned 32-bit quantities that must fit
     a sane range; a top bit set means a corrupt (or hostile) capture,
     and silently masking it would wrap a huge length into a bogus
     small one that desynchronizes the rest of the record walk.  Read
     as two 16-bit halves, so no [int32] is boxed. *)
  let u32_int endian buf pos =
    let v =
      match endian with
      | Big -> (Bytes.get_uint16_be buf pos lsl 16) lor Bytes.get_uint16_be buf (pos + 2)
      | Little -> (Bytes.get_uint16_le buf (pos + 2) lsl 16) lor Bytes.get_uint16_le buf pos
    in
    if v land 0x8000_0000 <> 0 then
      raise (Malformed (Printf.sprintf "field out of range: 0x%08x" v));
    v

  let header buf =
    if Bytes.length buf < 24 then raise (Malformed "file shorter than global header");
    let raw_magic = u32 Big buf 0 in
    if Int32.equal raw_magic magic_be then Big
    else if Int32.equal raw_magic magic_le then Little
    else raise (Malformed (Printf.sprintf "bad magic 0x%08lx" raw_magic))

  (* The record walk: record headers only, never payload bytes.  The
     digest reads each record's frame where it lies. *)
  let fold buf ~init ~f =
    let endian = header buf in
    let snaplen = u32_int endian buf 16 in
    let len = Bytes.length buf in
    let rec go acc pos =
      if pos = len then acc
      else begin
        if pos + 16 > len then raise (Malformed "truncated record header");
        let sec = u32_int endian buf pos in
        let usec = u32_int endian buf (pos + 4) in
        let incl_len = u32_int endian buf (pos + 8) in
        let orig_len = u32_int endian buf (pos + 12) in
        if incl_len > snaplen then
          raise
            (Malformed
               (Printf.sprintf "incl_len %d exceeds snaplen %d" incl_len snaplen));
        if pos + 16 + incl_len > len then raise (Malformed "truncated packet data");
        let ts = float_of_int sec +. (float_of_int usec /. 1e6) in
        go (f acc ~ts ~orig_len ~off:(pos + 16) ~cap_len:incl_len) (pos + 16 + incl_len)
      end
    in
    go init 24
end
