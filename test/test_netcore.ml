open Netcore

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let a = Rng.bits64 parent and b = Rng.bits64 child in
  Alcotest.(check bool) "streams differ" true (not (Int64.equal a b))

(* Values the generator gave for seed 42 before its state was unboxed;
   the representation may change, the stream may not. *)
let test_rng_stream_pinned () =
  let r = Rng.create 42 in
  Alcotest.(check int64) "first bits64" (-4767286540954276203L) (Rng.bits64 r);
  Alcotest.(check int64) "second bits64" 2949826092126892291L (Rng.bits64 r);
  let child = Rng.split r in
  Alcotest.(check int64) "split child's bits64" 6938366530895179L (Rng.bits64 child);
  Alcotest.(check int) "int 1000" 941 (Rng.int r 1000);
  Alcotest.(check (float 0.0)) "float" 0x1.378b0b448904p-5 (Rng.float r);
  Alcotest.(check int) "poisson mean 10" 11 (Rng.poisson r ~mean:10.0)

let test_rng_float_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_weighted () =
  let rng = Rng.create 3 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let v = Rng.weighted rng [ (0.7, "a"); (0.2, "b"); (0.1, "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let freq k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. 30_000.0 in
  Alcotest.(check bool) "a ~ 0.7" true (Float.abs (freq "a" -. 0.7) < 0.02);
  Alcotest.(check bool) "b ~ 0.2" true (Float.abs (freq "b" -. 0.2) < 0.02);
  Alcotest.(check bool) "c ~ 0.1" true (Float.abs (freq "c" -. 0.1) < 0.02)

let test_exponential_mean () =
  let rng = Rng.create 4 in
  let est =
    let sum = ref 0.0 in
    for _ = 1 to 50_000 do
      sum := !sum +. Dist.sample (Dist.Exponential 5.0) rng
    done;
    !sum /. 50_000.0
  in
  Alcotest.(check bool) "mean ~ 5" true (Float.abs (est -. 5.0) < 0.2)

let test_zipf_rank1_most_common () =
  let rng = Rng.create 5 in
  let z = Dist.Zipf.create ~n:20 ~s:1.1 in
  let counts = Array.make 21 0 in
  for _ = 1 to 20_000 do
    let r = Dist.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 beats rank 2" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 10" true (counts.(2) > counts.(10))

(* Empirical draws walk the bins in place; they must pick exactly what
   [Rng.weighted] picks from the same bins as a list, leave the RNG in
   the same state and fail the same way. *)
let prop_empirical_matches_weighted =
  let open QCheck in
  let weight = oneof [ always 0.0; float_range 0.0 5.0; float_range 0.0 1e-3 ] in
  Test.make ~name:"empirical matches Rng.weighted" ~count:500
    (pair (int_range 0 1_000_000)
       (list_of_size Gen.(0 -- 12) (pair weight (float_range 0.0 9000.0))))
    (fun (seed, bins) ->
      let pairs = Array.of_list bins in
      let outcome f rng =
        let v = try Ok (f rng) with Invalid_argument m -> Error m in
        (v, Rng.bits64 rng)
      in
      outcome (fun r -> Dist.sample (Dist.Empirical pairs) r) (Rng.create seed)
      = outcome (fun r -> Rng.weighted r (Array.to_list pairs)) (Rng.create seed))

let test_empirical_failures () =
  let fails pairs =
    let rng = Rng.create 3 in
    let untouched = Rng.bits64 (Rng.create 3) in
    (match Dist.sample (Dist.Empirical pairs) rng with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument m ->
      Alcotest.(check string) "message" "Rng.weighted: weights must sum to > 0" m);
    Alcotest.(check int64) "no draw before the check" untouched (Rng.bits64 rng)
  in
  fails [||];
  fails [| (0.0, 64.0); (0.0, 1500.0) |];
  fails [| (-1.0, 64.0); (0.5, 1500.0) |]

let test_summary_percentiles () =
  let values = Array.init 101 float_of_int in
  let s = Dist.Summary.of_array values in
  Alcotest.(check (float 1e-9)) "p50" 50.0 s.p50;
  Alcotest.(check (float 1e-9)) "p90" 90.0 s.p90;
  Alcotest.(check (float 1e-9)) "mean" 50.0 s.mean;
  Alcotest.(check int) "count" 101 s.count

let test_histogram_binning () =
  let h = Histogram.create [| 64.0; 128.0; 256.0 |] in
  Histogram.add h 10.0;
  Histogram.add h 64.0;
  Histogram.add h 127.0;
  Histogram.add h 255.0;
  Histogram.add h 256.0;
  Histogram.add h 1000.0;
  Histogram.add h 1000.0;
  Alcotest.(check (array int)) "counts" [| 1; 2; 1; 3 |] (Histogram.counts h);
  Alcotest.(check int) "total" 7 (Histogram.total h)

let test_histogram_float_counts () =
  let h = Histogram.create [| 100.0 |] in
  (* Sampling weights land fractionally, one weighted add per bin;
     ftotal and fractions keep them exact while the int accessors round
     for display. *)
  Alcotest.(check (list int)) "bins" [ 0; 1; 1 ]
    (List.map (Histogram.bin h) [ 10.0; 100.0; 200.0 ]);
  Histogram.add_bin h (Histogram.bin h 10.0) ~count:2.5;
  Histogram.add_bin h 0 ~count:0.25;
  Histogram.add_bin h (Histogram.bin h 200.0) ~count:1.75;
  Alcotest.(check (float 1e-12)) "ftotal" 4.5 (Histogram.ftotal h);
  Alcotest.(check (array int)) "counts round" [| 3; 2 |] (Histogram.counts h);
  Alcotest.(check (float 1e-12)) "fractions from floats" (2.75 /. 4.5)
    (Histogram.fractions h).(0);
  let rejected f =
    match f () with exception Invalid_argument _ -> true | () -> false
  in
  Alcotest.(check bool) "negative count rejected" true
    (rejected (fun () -> Histogram.add_bin h 0 ~count:(-1.0)));
  Alcotest.(check bool) "bin out of range rejected" true
    (rejected (fun () -> Histogram.add_bin h 2 ~count:1.0))

let test_histogram_int_path_exact () =
  (* The classic int API must stay exact through the float store. *)
  let h = Histogram.create [| 10.0 |] in
  for _ = 1 to 1_000_000 do
    Histogram.add h 5.0
  done;
  Alcotest.(check int) "a million adds stay exact" 1_000_000
    (Histogram.counts h).(0)

let test_log2_histogram () =
  let h = Histogram.Log2.create () in
  Histogram.Log2.add h 5.0;
  (* bucket 2: [4,8) *)
  Histogram.Log2.add h 1000.0;
  (* bucket 9: [512,1024) *)
  Alcotest.(check (list (pair int int))) "buckets" [ (2, 1); (9, 1) ]
    (Histogram.Log2.buckets h);
  (* Upper-bound sum excluding buckets below exponent 5 keeps only the
     1000-value, accounted as 2^10. *)
  Alcotest.(check (float 1e-9)) "upper-bound sum" 1024.0
    (Histogram.Log2.upper_bound_sum h ~min_exponent:5)

let test_mac_roundtrip () =
  let m = Mac.of_int64 0x021a2b3c4d5eL in
  Alcotest.(check int64) "roundtrip" 0x021a2b3c4d5eL (Mac.to_int64 m);
  Alcotest.(check int64) "keeps the low 48 bits" 0x021a2b3c4d5eL
    (Mac.to_int64 (Mac.of_int64 0x7fff_021a2b3c4d5eL))

let test_mac_random_unicast () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    let m = Mac.random rng in
    Alcotest.(check int64) "unicast" 0L
      (Int64.logand (Int64.shift_right_logical (Mac.to_int64 m) 40) 1L)
  done

let test_ipv4_roundtrip () =
  let a = Ipv4_addr.of_string "10.128.3.77" in
  Alcotest.(check string) "roundtrip" "10.128.3.77" (Ipv4_addr.to_string a)

let test_ipv4_prefix () =
  let rng = Rng.create 7 in
  let prefix = Ipv4_addr.of_string "10.42.0.0" in
  for _ = 1 to 200 do
    let a = Ipv4_addr.random_in rng ~prefix ~prefix_len:16 in
    Alcotest.(check int32) "in prefix" (Ipv4_addr.to_int32 prefix)
      (Int32.logand (Ipv4_addr.to_int32 a) 0xFFFF0000l)
  done

let test_ipv6_roundtrip () =
  let cases =
    [ ("2001:db8::1", "2001:db8::1"); ("::1", "::1"); ("fe80::", "fe80::");
      ("2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1") ]
  in
  List.iter
    (fun (input, expected) ->
      let a = Ipv6_addr.of_string input in
      Alcotest.(check string) input expected (Ipv6_addr.to_string a))
    cases

let test_checksum_rfc1071 () =
  (* Example from RFC 1071 section 3. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Checksum.ones_complement_sum b ~pos:0 ~len:8 in
  Alcotest.(check int) "sum" 0xddf2 sum;
  Alcotest.(check int) "checksum" (lnot 0xddf2 land 0xFFFF) (Checksum.finish sum)

let test_units_pps () =
  (* 100 Gbps of 1514-byte frames ~ 8.13 Mpps with 24B overhead. *)
  let pps = Units.pps_of_bps 100e9 ~frame_bytes:1514 in
  Alcotest.(check bool) "about 8.1Mpps" true (Float.abs (pps -. 8.127e6) < 0.01e6);
  let back = Units.bps_of_pps pps ~frame_bytes:1514 in
  Alcotest.(check (float 1.0)) "inverse" 100e9 back

let test_timebase () =
  Alcotest.(check int) "week" 2 (Timebase.week_of (15.0 *. Timebase.day));
  Alcotest.(check int) "day" 15 (Timebase.day_of (15.5 *. Timebase.day))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rng int always in bounds" ~count:500
      (pair small_int (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"ipv4 string roundtrip" ~count:500
      (quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255))
      (fun (a, b, c, d) ->
        let addr = Ipv4_addr.of_octets a b c d in
        Ipv4_addr.equal addr (Ipv4_addr.of_string (Ipv4_addr.to_string addr)));
    Test.make ~name:"ipv6 string roundtrip" ~count:500
      (pair (map Int64.of_int int) (map Int64.of_int int))
      (fun (hi, lo) ->
        let addr = Ipv6_addr.make hi lo in
        addr = Ipv6_addr.of_string (Ipv6_addr.to_string addr));
    Test.make ~name:"ipv6 rendering ≡ printf oracle" ~count:1000
      (array_of_size (Gen.return 8) (oneof [ always 0; always 0; int_bound 0xFFFF ]))
      (fun groups ->
        let half k =
          Array.fold_left
            (fun acc g -> Int64.logor (Int64.shift_left acc 16) (Int64.of_int g))
            0L (Array.sub groups k 4)
        in
        let addr = Ipv6_addr.make (half 0) (half 4) in
        let b = Buffer.create 8 in
        Buffer.add_string b "key|";
        Ipv6_addr.add_to_buffer b addr;
        Ipv6_addr.to_string addr = Oracle.ipv6_to_string addr
        && Buffer.contents b = "key|" ^ Oracle.ipv6_to_string addr);
    Test.make ~name:"ipv4 add_to_buffer ≡ to_string" ~count:500
      (quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255))
      (fun (a, b, c, d) ->
        let addr = Ipv4_addr.of_octets a b c d in
        let buf = Buffer.create 4 in
        Buffer.add_string buf "key|";
        Ipv4_addr.add_to_buffer buf addr;
        Buffer.contents buf = "key|" ^ Ipv4_addr.to_string addr);
    Test.make ~name:"histogram total equals additions" ~count:200
      (list (float_range (-1000.0) 1000.0))
      (fun values ->
        let h = Histogram.create [| -10.0; 0.0; 10.0 |] in
        List.iter (fun v -> Histogram.add h v) values;
        Histogram.total h = List.length values);
  ]

let suites =
  [
    ( "netcore.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "weighted frequencies" `Quick test_rng_weighted;
      ] );
    ( "netcore.dist",
      [
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "zipf ordering" `Quick test_zipf_rank1_most_common;
        Alcotest.test_case "summary percentiles" `Quick test_summary_percentiles;
        Alcotest.test_case "empirical failures" `Quick test_empirical_failures;
        QCheck_alcotest.to_alcotest prop_empirical_matches_weighted;
      ] );
    ( "netcore.histogram",
      [
        Alcotest.test_case "binning" `Quick test_histogram_binning;
        Alcotest.test_case "float counts" `Quick test_histogram_float_counts;
        Alcotest.test_case "int path exact" `Quick test_histogram_int_path_exact;
        Alcotest.test_case "log2" `Quick test_log2_histogram;
      ] );
    ( "netcore.addr",
      [
        Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
        Alcotest.test_case "mac random unicast" `Quick test_mac_random_unicast;
        Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
        Alcotest.test_case "ipv4 prefix" `Quick test_ipv4_prefix;
        Alcotest.test_case "ipv6 roundtrip" `Quick test_ipv6_roundtrip;
      ] );
    ( "netcore.misc",
      [
        Alcotest.test_case "checksum rfc1071" `Quick test_checksum_rfc1071;
        Alcotest.test_case "units pps" `Quick test_units_pps;
        Alcotest.test_case "timebase" `Quick test_timebase;
      ] );
    ("netcore.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
