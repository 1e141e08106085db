(* Decoders of untrusted bytes fail only with their declared error.
   Each test applies 2,000 seeded mutations (bit flips, truncation,
   u16/u32 overwrites, splices) to valid inputs and fails on the first
   exception a decoder lets escape: the pcap and pcapng record walk,
   dissecting every record where it lies (the decode [release] runs
   too), raises only their [Malformed]; HTTP request heads, their numeric
   query parameters, and JSON text return [Error]. *)

(* Run [decode] on every mutation of the valid inputs [bases].
   [decode] returns normally on a declared outcome; anything it raises
   fails the test. *)
let fuzz ~seed bases decode =
  Mutate.iter ~seed bases @@ fun i what input ->
  match decode input with
  | () -> ()
  | exception e ->
    Alcotest.failf "mutation %d (%s): %s escaped" i what (Printexc.to_string e)

(* --- captures ------------------------------------------------------ *)

let frames =
  let rng = Frame_gen.rng_of_seed 3 in
  List.init 6 (fun i ->
      (float_of_int i *. 1e-3, Frame_gen.random_frame ~max_payload:64 rng))

let captures =
  let w = Packet.Pcap.Writer.create () in
  List.iter (fun (ts, f) -> Packet.Pcap.Writer.add_frame w ~ts f) frames;
  [
    Bytes.to_string (Packet.Pcap.Writer.contents w);
    Bytes.to_string (Pcapng_writer.of_frames frames);
    Bytes.to_string
      (Pcapng_writer.write ~simple:true
         (List.map (fun (ts, f) -> Pcapng_writer.packet_of_frame ~ts f) frames));
  ]

let test_fold_any () =
  fuzz ~seed:31 captures (fun s ->
      match Analysis.Digest.pcap_to_acaps (Bytes.of_string s) with
      | _ -> ()
      | exception (Packet.Pcap.Reader.Malformed _ | Packet.Pcapng.Malformed _) -> ())

(* --- text formats -------------------------------------------------- *)

let test_http_request () =
  fuzz ~seed:33
    [
      "GET /series.json?name=captured_bytes_per_s&since=3600.5&n=20 HTTP/1.1\r\n\
       Host: 127.0.0.1:9090\r\n\
       Accept: */*\r\n\
       \r\n";
      "HEAD /lossmap.json?occasion=3&site=ST%41R&seq=-1e3 HTTP/1.1\r\n\
       Host: localhost\r\n\
       \r\n";
    ]
    (fun s ->
      match Obs.Http.parse_request s with
      | Error _ -> ()
      | Ok req ->
        List.iter
          (fun (k, _) ->
            ignore (Obs.Http.float_param req k);
            ignore (Obs.Http.int_param req k))
          req.Obs.Http.query)

let snapshot =
  let reg = Obs.Registry.create () in
  Obs.Registry.inc
    (Obs.Registry.counter reg "capture_frames_total" ~help:"Frames \"kept\"\\n"
       ~labels:[ ("site", "STAR"); ("cause", "a\"b\\c") ])
    42.0;
  Obs.Registry.set (Obs.Registry.gauge reg "pool_size") (-0.5);
  let h = Obs.Registry.histogram reg "stage_seconds" ~labels:[ ("stage", "digest") ] in
  List.iter (Obs.Registry.observe h) [ 1e-4; 0.5; 3.0 ];
  Obs.Registry.snapshot reg

let test_json () =
  let module J = Obs.Export.Json in
  fuzz ~seed:35
    [
      Obs.Export.to_json_string snapshot;
      J.to_string
        (J.Obj
           [
             ("a", J.Arr [ J.Null; J.Bool true; J.Num (-1.25e-7); J.Num 3.0 ]);
             ("b\"\\", J.Str "\t\226\156\147\x01");
             ("c", J.Obj []);
           ]);
    ]
    (fun s -> ignore (J.parse s))

let suites =
  [
    ( "decoders.fuzz",
      [
        Alcotest.test_case "pcap/pcapng fold_any + dissect" `Quick test_fold_any;
        Alcotest.test_case "http request + params" `Quick test_http_request;
        Alcotest.test_case "json text" `Quick test_json;
      ] );
  ]
