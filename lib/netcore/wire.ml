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
