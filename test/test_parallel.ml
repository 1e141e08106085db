(* The domain work pool: ordering, error propagation, and the end-to-end
   property that parallel analysis equals sequential output exactly,
   whatever the pool size or grouping. *)

module Pool = Parallel.Pool

let test_default_size () =
  Alcotest.(check bool) "at least one" true (Pool.default_size () >= 1);
  Alcotest.(check int) "sequential pool size" 1 (Pool.size Pool.sequential);
  Pool.with_pool ~size:3 (fun pool ->
      Alcotest.(check int) "requested size" 3 (Pool.size pool))

let test_map_matches_list_map () =
  let xs = List.init 1_000 (fun i -> i - 500) in
  let f x = (x * x) - (3 * x) in
  Pool.with_pool ~size:4 (fun pool ->
      Alcotest.(check (list int)) "order preserved" (List.map f xs)
        (Pool.map pool f xs));
  Alcotest.(check (list int)) "sequential fallback" (List.map f xs)
    (Pool.map Pool.sequential f xs)

let test_map_edge_cases () =
  Pool.with_pool ~size:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map pool succ [ 7 ]);
      Alcotest.(check (list int)) "fewer items than domains" [ 2; 3 ]
        (Pool.map pool succ [ 1; 2 ]))

let test_map_array () =
  Pool.with_pool ~size:3 (fun pool ->
      let xs = Array.init 257 (fun i -> i) in
      Alcotest.(check (array int)) "array order preserved"
        (Array.map succ xs)
        (Pool.map_array pool succ xs))

let test_exception_propagates () =
  Pool.with_pool ~size:3 (fun pool ->
      Alcotest.(check bool) "worker exception reraised" true
        (try
           ignore
             (Pool.map pool
                (fun x -> if x = 5 then failwith "boom" else x)
                (List.init 10 Fun.id));
           false
         with Failure m -> m = "boom");
      (* A failed batch must not poison the pool. *)
      Alcotest.(check (list int)) "pool survives failed batch" [ 2; 3; 4 ]
        (Pool.map pool succ [ 1; 2; 3 ]))

(* Contiguous groups of [size] elements (the last may be shorter). *)
let rec chunks size l =
  if l = [] then []
  else
    let rec split k acc = function
      | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = split size [] l in
    c :: chunks size rest

(* The full digest -> weighted-flow pipeline, its digest run through a
   pool and its records weighted in random chunkings, equals the
   sequential result exactly (structural equality, no tolerance). *)
let qcheck_parallel_pipeline_deterministic =
  QCheck.Test.make ~name:"parallel digest+flows equal sequential" ~count:25
    QCheck.(triple small_nat (int_range 1 4) (int_range 1 40))
    (fun (seed, size, chunk_size) ->
      let rng = Netcore.Rng.create (seed + 1) in
      let w = Packet.Pcap.Writer.create () in
      for i = 0 to 59 do
        Packet.Pcap.Writer.add_frame w
          ~ts:(float_of_int i *. 0.01)
          (Frame_gen.random_frame rng)
      done;
      let buf = Packet.Pcap.Writer.contents w in
      let seq_acaps = Analysis.Digest.pcap_to_acaps buf in
      let groups acaps =
        List.mapi
          (fun i c -> (c, if i mod 2 = 0 then 1.0 else 0.25))
          (chunks chunk_size acaps)
      in
      let seq_flows = Analysis.Flows.aggregate ~weights:(groups seq_acaps) [] in
      Pool.with_pool ~size (fun pool ->
          let acaps = Analysis.Digest.pcap_to_acaps ~pool buf in
          acaps = seq_acaps
          && Analysis.Flows.aggregate ~weights:(groups acaps) [] = seq_flows))

(* The zero-copy sliced decode, and the flows aggregated from it, are
   bit-identical to the copying baseline at pool sizes 1, 2 and 4, over
   random captures and an arbitrary range_count (range boundaries must
   never show in the output). *)
let qcheck_sliced_fused_equal_copying =
  QCheck.Test.make ~name:"sliced and fused decode equal copying path" ~count:15
    QCheck.(triple small_nat (int_range 0 60) (int_range 1 12))
    (fun (seed, npkts, range_count) ->
      let rng = Netcore.Rng.create (seed + 11) in
      let w = Packet.Pcap.Writer.create () in
      for i = 0 to npkts - 1 do
        Packet.Pcap.Writer.add_frame w
          ~ts:(float_of_int i *. 0.002)
          (Frame_gen.random_frame rng)
      done;
      let buf = Packet.Pcap.Writer.contents w in
      let copied = Oracle.acaps_copying buf in
      let base_flows = Analysis.Flows.aggregate copied in
      let idx = Packet.Pcapng.index_any buf in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              Analysis.Digest.pcap_to_acaps ~pool buf = copied
              && Analysis.Flows.aggregate (Analysis.Digest.pcap_to_acaps ~pool buf)
                 = base_flows
              && (* hand-chunked dissection at an explicit range_count *)
              List.concat
                (Pool.map_ranges pool ~range_count ~n:(Array.length idx)
                   (fun ~lo ~hi ->
                     List.init (hi - lo) (fun i ->
                         Dissect.Acap.of_entry buf idx.(lo + i))))
              = copied))
        [ 1; 2; 4 ])

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "default size" `Quick test_default_size;
        Alcotest.test_case "map matches List.map" `Quick test_map_matches_list_map;
        Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
        Alcotest.test_case "map_array" `Quick test_map_array;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
        QCheck_alcotest.to_alcotest qcheck_parallel_pipeline_deterministic;
        QCheck_alcotest.to_alcotest qcheck_sliced_fused_equal_copying;
      ] );
  ]
