(* The segment layer under both stores: a write killed part-way leaves
   the committed segments as they were, readers are closed whatever
   fails, and a seeded mutation fuzz of writer-produced segments under
   each schema raises nothing but Corrupt. *)

module Segment = Obs.Segment
module FS = Analysis.Flow_store
module T = Obs.Tsdb

let with_temp_dir f =
  let dir = Filename.temp_file "patchwork_segment" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Open descriptors of this process, or None where /proc is absent. *)
let fd_count () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let fsrec ?(site = "STAR") ?(rst = false) ~seq key =
  {
    FS.r_key = key;
    r_site = site;
    r_seq = seq;
    r_frames = float_of_int (seq + 1);
    r_bytes = 100.0 *. float_of_int (seq + 1);
    r_first = float_of_int seq;
    r_last = float_of_int (seq + 2);
    r_rst = rst;
  }

let point ~name ~at = T.raw_point ~name ~labels:[ ("site", "STAR") ] ~at 1.5

(* --- readers are closed when a later segment fails ----------------- *)

let test_failed_scan_closes_readers () =
  match fd_count () with
  | None -> Alcotest.skip ()
  | Some _ ->
    with_temp_dir @@ fun dir ->
    let path name = Filename.concat dir name in
    let bad = path "bad" in
    write_file bad "NOPE\x01\x00\x00\x00\x00\x00";
    let fails what query =
      let before = fd_count () in
      for _ = 1 to 100 do
        match query () with
        | () -> Alcotest.failf "%s: corrupt segment accepted" what
        | exception Segment.Corrupt _ -> ()
      done;
      Alcotest.(check (option int)) (what ^ ": no reader left open") before
        (fd_count ())
    in
    ignore (Segment.write FS.schema (path "a.pwfs") [ fsrec ~seq:0 "a" ]);
    ignore (Segment.write FS.schema (path "b.pwfs") [ fsrec ~seq:1 "b" ]);
    fails "flow store" (fun () ->
        ignore (FS.query [ path "a.pwfs"; path "b.pwfs"; bad ]));
    ignore (Segment.write T.schema (path "a.pwts") [ T.raw_point ~name:"x" ~at:1.0 2.0 ]);
    fails "tsdb" (fun () -> ignore (T.query [ path "a.pwts"; bad ]))

(* --- a write killed part-way ----------------------------------------- *)

exception Killed

(* A copy of [schema] whose encoder raises at record [k] (in write
   order), as a kill stops a writer part-way through a segment. *)
let killed_at (type a) (schema : a Segment.schema) k =
  let seen = ref 0 in
  {
    schema with
    Segment.encode =
      (fun b x ->
        if !seen = k then raise Killed;
        incr seen;
        schema.Segment.encode b x);
  }

(* Kill a write into a directory of committed segments at the first
   record, the second, the first record past the writer's first 64 KiB
   chunk, and the last: afterwards the directory lists and scans exactly
   as before, and holds no temporary. *)
let killed_write (type a) (schema : a Segment.schema) ~(committed : a list list)
    (records : a list) =
  with_temp_dir @@ fun dir ->
  let path i =
    Filename.concat dir (Printf.sprintf "seg-%06d%s" i schema.Segment.suffix)
  in
  List.iteri (fun i rs -> ignore (Segment.write schema (path i) rs)) committed;
  let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let files = listing () and listed = Segment.in_dir schema dir in
  let scan () =
    let acc = ref [] in
    ignore
      (Segment.scan schema (Segment.in_dir schema dir) (fun x ->
           acc := x :: !acc));
    List.rev !acc
  in
  let before = scan () in
  let past_chunk =
    let b = Buffer.create 65536 in
    Buffer.add_string b "0123456789" (* the header *);
    let rec go k = function
      | [] -> Alcotest.fail "the records never fill a 64 KiB chunk"
      | x :: rest ->
        if Buffer.length b >= 65536 then k
        else begin
          schema.Segment.encode b x;
          go (k + 1) rest
        end
    in
    go 0 (List.stable_sort schema.Segment.compare records)
  in
  List.iter
    (fun k ->
      (match
         Segment.write (killed_at schema k) (path (List.length committed)) records
       with
      | _ -> Alcotest.failf "k=%d: the write was not killed" k
      | exception Killed -> ());
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: scan returns what it returned before" k)
        true
        (scan () = before);
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d: only committed segments listed" k)
        listed (Segment.in_dir schema dir);
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d: no temporary left" k)
        files (listing ()))
    [ 0; 1; past_chunk; List.length records - 1 ]

let test_killed_write_flow_store () =
  killed_write FS.schema
    ~committed:[ [ fsrec ~seq:0 "a"; fsrec ~seq:1 "b" ]; [ fsrec ~seq:2 "a" ] ]
    (List.init 2000 (fun i ->
         fsrec ~seq:(3 + i)
           (Printf.sprintf "1|-|10.0.%d.%d|10.1.0.1|tcp|%d-443" (i / 250)
              (i mod 250) (1024 + i))))

let test_killed_write_tsdb () =
  killed_write T.schema
    ~committed:
      [ [ point ~name:"x" ~at:0.0 ]; [ T.raw_point ~name:"y" ~at:1.0 2.0 ] ]
    (List.init 2000 (fun i ->
         T.raw_point ~name:"captured_bytes_per_s"
           ~labels:[ ("site", "STAR") ]
           ~at:(float_of_int i) (float_of_int (i * i))))

(* --- block edges ------------------------------------------------------ *)

(* The reader decodes from a 4 KiB block that it refills from the file,
   and grows it only for a string longer than the block.  [records]
   spans many blocks and holds a 65,535-byte string, so records and
   fields straddle the refills.  The segment must read back whole
   through [read_all] and [scan]; cut one byte before, at and after
   each nominal block edge and each record boundary, it must name the
   record cut short; one appended byte is trailing garbage. *)
let block = 4096
let header = 10

let mentions ~affix s =
  let n = String.length s and m = String.length affix in
  let rec at i = i + m <= n && (String.sub s i m = affix || at (i + 1)) in
  at 0

let block_edges (type a) (schema : a Segment.schema) (records : a list) =
  with_temp_dir @@ fun dir ->
  let path name = Filename.concat dir (name ^ schema.Segment.suffix) in
  let whole = path "whole" in
  ignore (Segment.write schema whole records);
  let sorted = List.stable_sort schema.Segment.compare records in
  let scanned () =
    let acc = ref [] in
    ignore (Segment.scan schema [ whole ] (fun x -> acc := x :: !acc));
    List.rev !acc
  in
  Alcotest.(check bool) "read_all reads back every record" true
    (Segment.read_all schema whole = Ok sorted);
  Alcotest.(check bool) "scan reads back every record" true (scanned () = sorted);
  let bytes = read_file whole in
  let len = String.length bytes and n = List.length sorted in
  Alcotest.(check bool) "the segment spans several blocks" true (len > 4 * block);
  (* Where each record ends in the file. *)
  let ends =
    let b = Buffer.create len in
    List.map
      (fun x ->
        schema.Segment.encode b x;
        header + Buffer.length b)
      sorted
  in
  let fails what bytes want =
    let target = path what in
    write_file target bytes;
    Fun.protect ~finally:(fun () -> Sys.remove target) @@ fun () ->
    let says msg = mentions ~affix:want msg in
    (match Segment.read_all schema target with
    | Error msg when says msg -> ()
    | Error msg -> Alcotest.failf "%s: read_all said %S, not %S" what msg want
    | Ok _ -> Alcotest.failf "%s: read_all accepted the segment" what);
    match Segment.scan schema [ target ] ignore with
    | exception Segment.Corrupt msg when says msg -> ()
    | exception Segment.Corrupt msg ->
      Alcotest.failf "%s: scan said %S, not %S" what msg want
    | _ -> Alcotest.failf "%s: scan accepted the segment" what
  in
  let edges = List.init (len / block) (fun k -> header + ((k + 1) * block)) in
  List.concat_map (fun e -> [ e - 1; e; e + 1 ]) (edges @ ends)
  |> List.sort_uniq compare
  |> List.filter (fun t -> t > header && t < len)
  |> List.iter (fun t ->
         let want =
           if t - header < n then "implausible record count"
           else
             let complete = List.length (List.filter (fun e -> e <= t) ends) in
             Printf.sprintf "cut short at record %d/%d" (complete + 1) n
         in
         fails (Printf.sprintf "cut%d" t) (String.sub bytes 0 t) want);
  fails "appended" (bytes ^ "\x00") (Printf.sprintf "trailing garbage after %d records" n)

(* A string of the longest length a record holds. *)
let longest prefix = prefix ^ String.make (0xFFFF - String.length prefix) 'x'

let test_block_edges_flow_store () =
  block_edges FS.schema
    (List.init 300 (fun i ->
         let key =
           if i = 150 then longest "150|"
           else
             Printf.sprintf "%03d|-|10.0.%d.%d|%s|%s|%d-443" i (i / 7) (i * 13 mod 256)
               (String.make (i mod 23) '1')
               (if i mod 3 = 0 then "udp" else "tcp")
               (1024 + i)
         in
         fsrec ~seq:i ~site:(String.make (i mod 5) 'S') ~rst:(i mod 11 = 0) key))

let test_block_edges_tsdb () =
  block_edges T.schema
    (List.init 300 (fun i ->
         let value = if i = 150 then longest "" else String.make (i mod 19) 'v' in
         T.raw_point
           ~name:(Printf.sprintf "series_%d" (i mod 17))
           ~labels:[ ("site", Printf.sprintf "S%d" (i mod 4)); ("value", value) ]
           ~at:(float_of_int i) (float_of_int (i * i))))

(* --- seeded mutation fuzz ------------------------------------------ *)

let fuzz (type a) (schema : a Segment.schema) ~(bases : a list list) ~seed () =
  with_temp_dir @@ fun dir ->
  let path name = Filename.concat dir (name ^ schema.Segment.suffix) in
  let files =
    List.mapi
      (fun i records ->
        let p = path (Printf.sprintf "base%d" i) in
        ignore (Segment.write schema p records);
        read_file p)
      bases
  in
  let good = path "base0" in
  let fds = fd_count () in
  (* Offsets 4..9 are the header's version and record count.  Each
     mutation gets a file of its own, removed after its checks:
     truncating one file 2,000 times costs far more than creating 2,000. *)
  Mutate.iter ~fields:(4, 10) ~seed files @@ fun i what bytes ->
  let target = path (Printf.sprintf "mutated%d" i) in
  write_file target bytes;
  Fun.protect ~finally:(fun () -> Sys.remove target) @@ fun () ->
  let escaped e =
    Alcotest.failf "mutation %d (%s): %s escaped" i what (Printexc.to_string e)
  in
  let whole =
    match Segment.read_all schema target with
    | r -> Result.is_ok r
    | exception e -> escaped e
  in
  let merged =
    match Segment.scan schema [ good; target ] ignore with
    | _ -> true
    | exception Segment.Corrupt _ -> false
    | exception e -> escaped e
  in
  if whole <> merged then
    Alcotest.failf "mutation %d (%s): read_all and scan disagree" i what;
  if fd_count () <> fds then
    Alcotest.failf "mutation %d (%s): a reader was left open" i what

let test_fuzz_flow_store () =
  fuzz FS.schema ~seed:15
    ~bases:
      [
        [
          fsrec ~seq:0 "1|-|10.0.0.1|10.0.0.2|tcp|80-443";
          fsrec ~seq:1 ~site:"WASH" ~rst:true "1|-|10.0.0.1|10.0.0.2|tcp|80-443";
          fsrec ~seq:2 "2|-|10.0.0.3|10.0.0.4|udp|53-5353";
          fsrec ~seq:0 "";
        ];
        [ fsrec ~seq:7 ~site:"" "k"; fsrec ~seq:9 ~rst:true "z" ];
      ]
    ()

let test_fuzz_tsdb () =
  fuzz T.schema ~seed:16
    ~bases:
      [
        [
          T.raw_point ~name:"site_drop_rate" ~labels:[ ("site", "STAR") ] ~at:60.0 0.125;
          T.raw_point ~name:"site_drop_rate" ~labels:[ ("site", "STAR") ] ~at:60.0 0.125;
          point ~name:"captured_bytes_per_s" ~at:0.0;
          T.raw_point ~name:"up" ~labels:[ ("a", "1"); ("b", "2") ] ~at:5.0 1.0;
        ];
        [ point ~name:"x" ~at:3600.0; T.raw_point ~name:"y" ~at:1.0 (-1.0) ];
      ]
    ()

let suites =
  [
    ( "obs.segment",
      [
        Alcotest.test_case "killed .pwfs write leaves committed segments"
          `Quick test_killed_write_flow_store;
        Alcotest.test_case "killed .pwts write leaves committed segments"
          `Quick test_killed_write_tsdb;
        Alcotest.test_case "failed scan closes readers" `Quick
          test_failed_scan_closes_readers;
        Alcotest.test_case ".pwfs reads across block edges" `Quick
          test_block_edges_flow_store;
        Alcotest.test_case ".pwts reads across block edges" `Quick
          test_block_edges_tsdb;
        Alcotest.test_case "fuzzed .pwfs raises only Corrupt" `Quick
          test_fuzz_flow_store;
        Alcotest.test_case "fuzzed .pwts raises only Corrupt" `Quick
          test_fuzz_tsdb;
      ] );
  ]
