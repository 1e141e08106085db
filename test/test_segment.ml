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
        Alcotest.test_case "fuzzed .pwfs raises only Corrupt" `Quick
          test_fuzz_flow_store;
        Alcotest.test_case "fuzzed .pwts raises only Corrupt" `Quick
          test_fuzz_tsdb;
      ] );
  ]
