(* The domain work pool: sizes, order and error propagation.  The
   analysis it runs is checked to equal sequential output where it runs
   it: the profile of an occasion at any pool size. *)

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

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "default size" `Quick test_default_size;
        Alcotest.test_case "map matches List.map" `Quick test_map_matches_list_map;
        Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
        Alcotest.test_case "map_array" `Quick test_map_array;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
      ] );
  ]
