open Netcore

type index_entry = { ts : float; orig_len : int; data_off : int; cap_len : int }

let magic_be = 0xA1B2C3D4l
let magic_le = 0xD4C3B2A1l
let linktype_ethernet = 1l

let default_snaplen = 65535

(* The record a capture with snap length [snaplen] stores for [frame]:
   its first [min snaplen wire_length] bytes, appended to the emptied
   [w], and its wire length, returned. *)
let encode_record w ~snaplen frame =
  Wire.Writer.truncate w 0;
  Codec.encode_into w ~limit:snaplen frame;
  Frame.wire_length frame

module Writer = struct
  type t = {
    snaplen : int;
    buf : Buffer.t;
    scratch : Wire.Writer.t;  (* the frame [add_frame] is encoding *)
    mutable count : int;
  }

  let create ?(snaplen = default_snaplen) () =
    if snaplen <= 0 then invalid_arg "Pcap.Writer.create: snaplen must be positive";
    let buf = Buffer.create 4096 in
    Buffer.add_int32_be buf magic_be;
    Buffer.add_uint16_be buf 2 (* version major *);
    Buffer.add_uint16_be buf 4 (* version minor *);
    Buffer.add_int32_be buf 0l (* thiszone *);
    Buffer.add_int32_be buf 0l (* sigfigs *);
    Buffer.add_int32_be buf (Int32.of_int snaplen);
    Buffer.add_int32_be buf linktype_ethernet;
    { snaplen; buf; scratch = Wire.Writer.create (); count = 0 }

  (* Append a record of [orig_len] wire bytes whose first [incl_len] are
     the first [incl_len] of [data]. *)
  let add_record t ~ts ~orig_len ~incl_len data =
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
    Buffer.add_int32_be t.buf (Int32.of_int sec);
    Buffer.add_int32_be t.buf (Int32.of_int usec);
    Buffer.add_int32_be t.buf (Int32.of_int incl_len);
    Buffer.add_int32_be t.buf (Int32.of_int orig_len);
    Buffer.add_subbytes t.buf data 0 incl_len;
    t.count <- t.count + 1

  let add t ~ts ?orig_len data =
    let orig_len = match orig_len with Some l -> l | None -> Bytes.length data in
    if orig_len < 0 then invalid_arg "Pcap.Writer.add: negative orig_len";
    (* The spec requires incl_len <= orig_len: a caller claiming fewer
       original bytes than it hands us gets the excess dropped. *)
    add_record t ~ts ~orig_len
      ~incl_len:(min (min (Bytes.length data) t.snaplen) orig_len)
      data

  let add_frame t ~ts frame =
    let orig_len = encode_record t.scratch ~snaplen:t.snaplen frame in
    add_record t ~ts ~orig_len ~incl_len:(Wire.Writer.length t.scratch)
      (Wire.Writer.buffer t.scratch)

  let packet_count t = t.count
  let contents t = Buffer.to_bytes t.buf

  let to_file t path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Buffer.output_buffer oc t.buf)
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
     small one that desynchronizes the rest of the record walk. *)
  let u32_int endian buf pos =
    let v = u32 endian buf pos in
    if Int32.compare v 0l < 0 then
      raise (Malformed (Printf.sprintf "field out of range: 0x%08lx" v));
    Int32.to_int v

  let header buf =
    if Bytes.length buf < 24 then raise (Malformed "file shorter than global header");
    let raw_magic = u32 Big buf 0 in
    if Int32.equal raw_magic magic_be then Big
    else if Int32.equal raw_magic magic_le then Little
    else raise (Malformed (Printf.sprintf "bad magic 0x%08lx" raw_magic))

  (* First pass of the indexed decode: walk record headers only (never
     payload bytes) and emit one offset/length/timestamp entry per
     record.  Everything downstream — slicing, parallel dissection —
     derives from this single walk. *)
  let index buf =
    let endian = header buf in
    let snaplen = u32_int endian buf 16 in
    let len = Bytes.length buf in
    let entries = ref [] in
    let pos = ref 24 in
    while !pos <> len do
      if !pos + 16 > len then raise (Malformed "truncated record header");
      let sec = u32_int endian buf !pos in
      let usec = u32_int endian buf (!pos + 4) in
      let incl_len = u32_int endian buf (!pos + 8) in
      let orig_len = u32_int endian buf (!pos + 12) in
      if incl_len > snaplen then
        raise
          (Malformed
             (Printf.sprintf "incl_len %d exceeds snaplen %d" incl_len snaplen));
      if !pos + 16 + incl_len > len then raise (Malformed "truncated packet data");
      let ts = float_of_int sec +. (float_of_int usec /. 1e6) in
      entries :=
        { ts; orig_len; data_off = !pos + 16; cap_len = incl_len } :: !entries;
      pos := !pos + 16 + incl_len
    done;
    Array.of_list (List.rev !entries)

  let slice buf (e : index_entry) = Slice.make buf ~off:e.data_off ~len:e.cap_len

end
