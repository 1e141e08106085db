(* Sorted binary segment files under both durable stores.

   Header: 4-byte magic, u16 version, u32 record count, little-endian.
   A schema supplies the magic, the record codec and the record order;
   this module owns the header, the commit, the block-buffered reader,
   every structural check and the k-way merge. *)

exception Corrupt of string

let version = 1
let header_len = 10

(* The count an older writer streamed records behind until it
   back-patched the real one: a header still holding it is a segment
   that writer never finished. *)
let unsealed_marker = 0xFFFFFFFF

let corrupt path fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt (path ^ ": " ^ msg))) fmt

(* --- the decoder's cursor ------------------------------------------- *)

(* The cursor decodes from a block of the file that it refills itself,
   one channel read per block, so a record costs no channel call of its
   own.  The block grows only for a field or string longer than it (a
   string is at most 65,535 bytes), never to the whole file.  At 4 KiB
   a refill is already rare; a larger block scans no faster and only
   adds to the garbage each query leaves. *)
let block_size = 4096

type cursor = {
  path : string;
  ic : in_channel;
  len : int;  (* file length at open *)
  count : int;
  mutable read : int;
  mutable block : Bytes.t;
  mutable pos : int;  (* next byte to decode *)
  mutable lim : int;  (* end of the bytes read into the block *)
  mutable fixed : Bytes.t;  (* what [field] returns; every call reuses it *)
}

let cut_short c what =
  corrupt c.path "truncated segment: %s cut short at record %d/%d" what
    (c.read + 1) c.count

(* Make the next [n] bytes decodable at [c.pos]: move the unread tail
   to the front of the block, growing it if [n] does not fit, and read
   on from the file. *)
let refill c n what =
  let avail = c.lim - c.pos in
  let block =
    if n > Bytes.length c.block then Bytes.create n else c.block
  in
  Bytes.blit c.block c.pos block 0 avail;
  c.block <- block;
  c.pos <- 0;
  c.lim <- avail;
  while c.lim < n do
    match input c.ic block c.lim (Bytes.length block - c.lim) with
    | 0 -> cut_short c what
    | k -> c.lim <- c.lim + k
  done

let field c n what =
  if c.lim - c.pos < n then refill c n what;
  if n > Bytes.length c.fixed then c.fixed <- Bytes.create n;
  Bytes.blit c.block c.pos c.fixed 0 n;
  c.pos <- c.pos + n;
  c.fixed

let str c what =
  if c.lim - c.pos < 2 then refill c 2 (what ^ " length");
  let len = Bytes.get_uint16_le c.block c.pos in
  c.pos <- c.pos + 2;
  if c.lim - c.pos < len then refill c len what;
  let s = Bytes.sub_string c.block c.pos len in
  c.pos <- c.pos + len;
  s

let invalid c fmt =
  Printf.ksprintf
    (fun msg -> corrupt c.path "%s at record %d" msg (c.read + 1))
    fmt

let add_str buf s =
  if String.length s > 0xFFFF then
    invalid_arg "Obs.Segment.add_str: string longer than 65535 bytes";
  Buffer.add_uint16_le buf (String.length s);
  Buffer.add_string buf s

type 'a schema = {
  magic : string;
  suffix : string;
  compare : 'a -> 'a -> int;
  encode : Buffer.t -> 'a -> unit;
  decode : cursor -> 'a;
  ties : bool;
}

(* --- writing -------------------------------------------------------- *)

let tmp_suffix = ".tmp"

(* One commit: the whole segment goes to [path ^ ".tmp"], which is then
   renamed to [path].  A final name therefore only ever holds a
   complete segment; a write cut short leaves at most a temporary. *)
let write schema path records =
  let records = List.sort schema.compare records in
  let tmp = path ^ tmp_suffix in
  let oc = open_out_bin tmp in
  match
    let b = Buffer.create 65536 in
    Buffer.add_string b schema.magic;
    Buffer.add_uint16_le b version;
    Buffer.add_int32_le b (Int32.of_int (List.length records));
    List.iter
      (fun x ->
        schema.encode b x;
        if Buffer.length b >= 65536 then begin
          Buffer.output_buffer oc b;
          Buffer.clear b
        end)
      records;
    Buffer.output_buffer oc b;
    let size = pos_out oc in
    close_out oc;
    size
  with
  | size ->
    Sys.rename tmp path;
    size
  | exception e ->
    close_out_noerr oc;
    Sys.remove tmp;
    raise e

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* --- reading -------------------------------------------------------- *)

type 'a reader = {
  schema : 'a schema;
  cur : cursor;
  mutable prev : 'a option;  (* sortedness check *)
  mutable closed : bool;
}

let read_header schema path ic =
  let len = in_channel_length ic in
  let header = Bytes.create header_len in
  (try really_input ic header 0 header_len
   with End_of_file ->
     corrupt path "truncated segment: %d-byte file is shorter than the header"
       len);
  if Bytes.sub_string header 0 4 <> schema.magic then
    corrupt path "bad magic (not a %s segment)" schema.magic;
  let v = Bytes.get_uint16_le header 4 in
  if v <> version then corrupt path "unsupported segment version %d" v;
  let n = Int32.to_int (Bytes.get_int32_le header 6) land 0xFFFFFFFF in
  if n = unsealed_marker then
    corrupt path "unsealed segment (an older writer never sealed it)";
  (* Every record takes at least one byte. *)
  if n > len - header_len then
    corrupt path "implausible record count %d for a %d-byte file" n len;
  (len, n)

let open_reader schema path =
  let ic =
    try open_in_bin path with Sys_error msg -> raise (Corrupt (path ^ ": " ^ msg))
  in
  match read_header schema path ic with
  | len, count ->
    {
      schema;
      cur =
        {
          path;
          ic;
          len;
          count;
          read = 0;
          block = Bytes.create block_size;
          pos = 0;
          lim = 0;
          fixed = Bytes.create 64;
        };
      prev = None;
      closed = false;
    }
  | exception e ->
    close_in_noerr ic;
    raise (match e with Sys_error msg -> Corrupt (path ^ ": " ^ msg) | e -> e)

let close r =
  if not r.closed then begin
    r.closed <- true;
    close_in_noerr r.cur.ic
  end

let next r =
  let c = r.cur in
  if r.closed then None
  else if c.read >= c.count then begin
    if c.pos < c.lim || pos_in c.ic < c.len then
      corrupt c.path "trailing garbage after %d records" c.count;
    close r;
    None
  end
  else begin
    let x = r.schema.decode c in
    (match r.prev with
    | Some p ->
      let o = r.schema.compare p x in
      if o > 0 || (o = 0 && not r.schema.ties) then
        corrupt c.path "segment not sorted at record %d" (c.read + 1)
    | None -> ());
    let o = Some x in
    r.prev <- o;
    c.read <- c.read + 1;
    o
  end

let read_all schema path =
  match
    let r = open_reader schema path in
    Fun.protect
      ~finally:(fun () -> close r)
      (fun () ->
        let rec go acc =
          match next r with None -> List.rev acc | Some x -> go (x :: acc)
        in
        go [])
  with
  | records -> Ok records
  | exception Corrupt msg -> Error msg

(* --- k-way merge ---------------------------------------------------- *)

(* Min-heap over open readers ordered by each reader's head record;
   equal records tie-break on reader index so the merge is a stable,
   deterministic interleave whatever the heap's internal layout.  One
   record of look-ahead and one block per segment is the whole
   in-flight state. *)
module Heap = struct
  type 'a entry = { mutable head : 'a; reader : 'a reader; index : int }
  type 'a t = { compare : 'a -> 'a -> int; a : 'a entry array; mutable n : int }

  let lt h x y =
    match h.compare x.head y.head with 0 -> x.index < y.index | c -> c < 0

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < h.n && lt h h.a.(l) h.a.(!m) then m := l;
    if r < h.n && lt h h.a.(r) h.a.(!m) then m := r;
    if !m <> i then begin
      let tmp = h.a.(i) in
      h.a.(i) <- h.a.(!m);
      h.a.(!m) <- tmp;
      sift_down h !m
    end

  let of_list compare entries =
    let a = Array.of_list entries in
    let h = { compare; a; n = Array.length a } in
    for i = (h.n / 2) - 1 downto 0 do
      sift_down h i
    done;
    h

  (* Advance the minimum entry to its reader's next record (dropping the
     entry when the segment is exhausted) and restore the heap. *)
  let advance_min h =
    match next h.a.(0).reader with
    | Some x ->
      h.a.(0).head <- x;
      sift_down h 0
    | None ->
      h.n <- h.n - 1;
      if h.n > 0 then begin
        h.a.(0) <- h.a.(h.n);
        sift_down h 0
      end
end

let scan schema paths f =
  (* Readers open inside the protected region, so a segment that fails
     to open still closes the ones opened before it. *)
  let opened = ref [] in
  Fun.protect ~finally:(fun () -> List.iter close !opened) @@ fun () ->
  let heads =
    List.mapi
      (fun index path ->
        let reader = open_reader schema path in
        opened := reader :: !opened;
        Option.map (fun head -> { Heap.head; reader; index }) (next reader))
      paths
  in
  let heap = Heap.of_list schema.compare (List.filter_map Fun.id heads) in
  let scanned = ref 0 in
  while heap.Heap.n > 0 do
    incr scanned;
    f heap.Heap.a.(0).Heap.head;
    Heap.advance_min heap
  done;
  !scanned

let files_ending dir suffix =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.sort compare
    |> List.map (Filename.concat dir)

let in_dir schema dir = files_ending dir schema.suffix

let remove_uncommitted schema dir =
  let tmps = files_ending dir (schema.suffix ^ tmp_suffix) in
  List.iter Sys.remove tmps;
  List.length tmps
