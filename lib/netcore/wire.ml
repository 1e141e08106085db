module Writer = struct
  type t = { mutable buf : bytes; mutable len : int }

  let create ?(capacity = 256) () = { buf = Bytes.create (max 16 capacity); len = 0 }

  let length t = t.len

  let grow t cap =
    let grown = Bytes.create cap in
    Bytes.blit t.buf 0 grown 0 t.len;
    t.buf <- grown

  let ensure t extra =
    let needed = t.len + extra in
    if needed > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < needed do cap := !cap * 2 done;
      grow t !cap
    end

  let reserve t n = if t.len + n > Bytes.length t.buf then grow t (t.len + n)

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.chr (v land 0xFF));
    t.len <- t.len + 1

  let u16 t v =
    ensure t 2;
    Bytes.set_uint16_be t.buf t.len (v land 0xFFFF);
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_be t.buf t.len v;
    t.len <- t.len + 4

  let u64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len v;
    t.len <- t.len + 8

  let string t s =
    ensure t (String.length s);
    Bytes.blit_string s 0 t.buf t.len (String.length s);
    t.len <- t.len + String.length s

  let zeros t n =
    ensure t n;
    Bytes.fill t.buf t.len n '\000';
    t.len <- t.len + n

  let subbytes t b ~pos ~len =
    ensure t len;
    Bytes.blit b pos t.buf t.len len;
    t.len <- t.len + len

  let contents t = Bytes.sub t.buf 0 t.len
  let buffer t = t.buf

  let patch_u16 t ~pos v =
    if pos < 0 || pos + 2 > t.len then invalid_arg "Writer.patch_u16: out of range";
    Bytes.set_uint16_be t.buf pos (v land 0xFFFF)
end

module Reader = struct
  type t = { buf : bytes; limit : int; mutable cursor : int }

  exception Truncated

  let of_bytes ?(pos = 0) ?len buf =
    let len = match len with Some l -> l | None -> Bytes.length buf - pos in
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      invalid_arg "Reader.of_bytes: bad bounds";
    { buf; limit = pos + len; cursor = pos }

  let remaining t = t.limit - t.cursor

  let need t n = if t.cursor + n > t.limit then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.unsafe_get t.buf t.cursor) in
    t.cursor <- t.cursor + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_be t.buf t.cursor in
    t.cursor <- t.cursor + 2;
    v

  let u32 t =
    need t 4;
    let v = Bytes.get_int32_be t.buf t.cursor in
    t.cursor <- t.cursor + 4;
    v

  let u64 t =
    need t 8;
    let v = Bytes.get_int64_be t.buf t.cursor in
    t.cursor <- t.cursor + 8;
    v

  let skip t n =
    need t n;
    t.cursor <- t.cursor + n

  let peek_u8 t =
    need t 1;
    Char.code (Bytes.unsafe_get t.buf t.cursor)

  let starts_with t prefix =
    let n = String.length prefix in
    t.cursor + n <= t.limit
    &&
    let i = ref 0 in
    while !i < n && Bytes.unsafe_get t.buf (t.cursor + !i) = String.unsafe_get prefix !i do
      incr i
    done;
    !i = n

  let sub t n =
    need t n;
    let r = { buf = t.buf; limit = t.cursor + n; cursor = t.cursor } in
    t.cursor <- t.cursor + n;
    r
end
