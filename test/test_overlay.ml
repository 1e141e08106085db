(* The zero-alloc overlay dissection path: slice fast accessors agree
   with the checked reads, the overlay cursor agrees with the
   record-building reference dissector on the flow key and the RST bit
   (also on seeded mutations of well-formed frames, where neither may
   raise), the overlay digest is bit-identical to aggregating the
   copying decode and the sliced digest to the copying decode itself at
   any pool size, and batched driver replay is bit-identical to
   per-event replay. *)

module OV = Dissect.Overlay
module S = Packet.Slice
module H = Packet.Headers
module Pool = Parallel.Pool
module Rng = Netcore.Rng

(* --- Slice fast accessors ≡ checked reads --- *)

let prop_fast_accessors_equal =
  QCheck.Test.make ~count:200
    ~name:"Slice fast accessors ≡ checked reads (incl. out-of-window)"
    QCheck.(triple small_int (int_range 0 24) (int_range (-4) 40))
    (fun (seed, off, i) ->
      let rng = Frame_gen.rng_of_seed seed in
      let buf = Bytes.init 48 (fun _ -> Char.chr (Rng.int rng 256)) in
      let len = min (Rng.int rng 24) (48 - off) in
      let s = S.make buf ~off ~len in
      let agree checked fast =
        match checked () with
        | v -> ( try fast () = v with Invalid_argument _ -> false)
        | exception Invalid_argument _ -> (
          match fast () with
          | _ -> false
          | exception Invalid_argument _ -> true)
      in
      agree (fun () -> S.get_u8 s i) (fun () -> S.get_u8_fast s i)
      && agree (fun () -> S.get_u16_be s i) (fun () -> S.get_u16_be_fast s i)
      && agree
           (fun () ->
             Int64.to_int
               (Int64.logand (Int64.of_int32 (S.get_u32_be s i)) 0xFFFFFFFFL))
           (fun () -> S.get_u32_be_fast s i))

(* --- adversarial captures --- *)

(* Frames with VLAN/MPLS stacks, pseudowire, truncation sweeps, snapped
   records and malformed IPv4 total_len fields.  Half the frames reuse
   one of 1-4 template stacks, some with their VLAN vids flipped, each
   with a fresh payload length, so one flow's frames differ only in
   per-frame bytes; the other half are fresh stacks.  The total_len
   corruption targets the first IPv4 header byte pair at its computed
   offset, producing both sub-header (< 20, the unnarrowed path) and
   oversized (> capture, the truncated narrowing path) values. *)
let ipv4_offset stack =
  let rec go off = function
    | [] -> None
    | H.Ethernet _ :: rest -> go (off + 14) rest
    | H.Vlan _ :: rest -> go (off + 4) rest
    | H.Mpls _ :: rest -> go (off + 4) rest
    | H.Pseudowire :: rest -> go (off + 4) rest
    | H.Ipv4 _ :: _ -> Some off
    | _ -> None
  in
  go 0 stack

let flip_vids rng stack =
  List.map
    (function
      | H.Vlan v -> H.Vlan { v with H.vid = 1 + Rng.int rng 4094 }
      | h -> h)
    stack

let adversarial_frame rng stack =
  let b =
    Packet.Codec.encode (Packet.Frame.make stack ~payload_len:(Rng.int rng 200))
  in
  let orig = Bytes.length b in
  (* malformed total_len on a fifth of IPv4 frames *)
  (match ipv4_offset stack with
  | Some off when Rng.bernoulli rng 0.2 && off + 4 <= Bytes.length b ->
    let bad =
      if Rng.bool rng then Rng.int rng 20 (* below header *)
      else 2000 + Rng.int rng 60000 (* beyond capture *)
    in
    Bytes.set_uint16_be b (off + 2) bad
  | _ -> ());
  (* snapped records: cut anywhere, including mid-header *)
  if Rng.bernoulli rng 0.3 then
    let keep = 1 + Rng.int rng (Bytes.length b) in
    (Bytes.sub b 0 keep, orig)
  else (b, orig)

let adversarial_pcap seed =
  let rng = Frame_gen.rng_of_seed seed in
  let templates =
    Array.init (1 + Rng.int rng 4) (fun _ -> Frame_gen.random_stack rng)
  in
  let w = Packet.Pcap.Writer.create () in
  let events = 40 + Rng.int rng 40 in
  for i = 0 to events - 1 do
    let stack =
      if Rng.bool rng then Frame_gen.random_stack rng
      else
        let t = Rng.choice rng templates in
        if Rng.bernoulli rng 0.2 then flip_vids rng t else t
    in
    let data, orig = adversarial_frame rng stack in
    Packet.Pcap.Writer.add w ~ts:(float_of_int i *. 1e-3) ~orig_len:orig data
  done;
  Packet.Pcap.Writer.contents w

(* --- per-frame: overlay ≡ record dissection --- *)

(* Classify one frame both ways; true when key and RST agree. *)
let agrees ov ~orig_len slice =
  OV.classify ov ~orig_len slice;
  let r = Dissect.Acap.of_slice ~ts:0.0 ~orig_len slice in
  OV.key ov = Dissect.Acap.flow_key r && OV.rst ov = r.Dissect.Acap.tcp_rst

let prop_overlay_matches_record_per_frame =
  QCheck.Test.make ~count:40
    ~name:"overlay ≡ record per frame (key, RST) over adversarial frames"
    QCheck.small_int
    (fun seed ->
      let buf = adversarial_pcap seed in
      let ov = OV.create () in
      Array.for_all
        (fun (e : Packet.Pcap.index_entry) ->
          agrees ov ~orig_len:e.Packet.Pcap.orig_len
            (Packet.Pcap.Reader.slice buf e))
        (Packet.Pcapng.index_any buf))

(* --- whole-digest: overlay flows ≡ flows of the copying decode --- *)

let prop_overlay_digest_identical =
  QCheck.Test.make ~count:15
    ~name:"overlay digest ≡ record flows of the copying decode (pools 1/2/4)"
    QCheck.small_int
    (fun seed ->
      let buf = adversarial_pcap seed in
      let reference = Analysis.Flows.aggregate (Oracle.acaps_copying buf) in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              Analysis.Digest.pcap_to_flows ~pool buf = reference))
        [ 1; 2; 4 ])

(* --- whole-digest: sliced acaps ≡ the copying decode --- *)

let prop_sliced_acaps_identical =
  QCheck.Test.make ~count:20
    ~name:"sliced acaps ≡ copying decode over adversarial captures (pools 1/2/4)"
    QCheck.small_int
    (fun seed ->
      let buf = adversarial_pcap seed in
      let reference = Oracle.acaps_copying buf in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              Analysis.Digest.pcap_to_acaps ~pool buf = reference))
        [ 1; 2; 4 ])

(* --- fuzz: seeded mutations of encoded frames --- *)

let encoded rng =
  Packet.Codec.encode (Frame_gen.random_frame ~max_payload:200 rng)

(* One seeded mutation: bit flips, byte overwrites, a random 16-bit
   value written at any offset (so length fields, ethertypes and ports
   take arbitrary values), truncation at any offset, or a splice of a
   prefix of this frame onto a suffix of a fresh one.  Operators that
   need more bytes than the frame has leave it unchanged. *)
let mutate rng b =
  let n = Bytes.length b in
  match Rng.int rng 5 with
  | 0 when n > 0 ->
    let b = Bytes.copy b in
    for _ = 1 to 1 + Rng.int rng 8 do
      let i = Rng.int rng n in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Rng.int rng 8))
    done;
    b
  | 1 when n > 0 ->
    let b = Bytes.copy b in
    for _ = 1 to 1 + Rng.int rng 4 do
      Bytes.set_uint8 b (Rng.int rng n) (Rng.int rng 256)
    done;
    b
  | 2 when n >= 2 ->
    let b = Bytes.copy b in
    Bytes.set_uint16_be b (Rng.int rng (n - 1)) (Rng.int rng 65536);
    b
  | 3 -> Bytes.sub b 0 (Rng.int rng (n + 1))
  | 4 ->
    let other = encoded rng in
    let cut = Rng.int rng (Bytes.length other + 1) in
    Bytes.cat
      (Bytes.sub b 0 (Rng.int rng (n + 1)))
      (Bytes.sub other cut (Bytes.length other - cut))
  | _ -> b

(* A Frame_gen frame after one to three mutations, with the wire length
   its record claims: half the records claim the unmutated length, as
   a snapped capture would. *)
let mutated_frame rng =
  let b = encoded rng in
  let data = ref b in
  for _ = 1 to 1 + Rng.int rng 3 do
    data := mutate rng !data
  done;
  let data = !data in
  let orig_len =
    if Rng.bool rng then max (Bytes.length data) (Bytes.length b)
    else Bytes.length data
  in
  (data, orig_len)

(* Either side raising fails the property (QCheck reports the
   exception), so this also pins that neither classifier raises. *)
let prop_fuzz_per_frame =
  QCheck.Test.make ~count:500
    ~name:"mutated frames: overlay and record never raise, agree on key/RST"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Frame_gen.rng_of_seed seed in
      let ov = OV.create () in
      List.for_all
        (fun _ ->
          let data, orig_len = mutated_frame rng in
          agrees ov ~orig_len (S.make data ~off:0 ~len:(Bytes.length data)))
        (List.init 100 Fun.id))

let mutated_pcap seed =
  let rng = Frame_gen.rng_of_seed seed in
  let w = Packet.Pcap.Writer.create () in
  let events = 40 + Rng.int rng 40 in
  for i = 0 to events - 1 do
    let data, orig_len = mutated_frame rng in
    Packet.Pcap.Writer.add w ~ts:(float_of_int i *. 1e-3) ~orig_len data
  done;
  Packet.Pcap.Writer.contents w

let prop_fuzz_digest =
  QCheck.Test.make ~count:15
    ~name:"mutated captures: overlay flows ≡ aggregated acaps (pools 1/2/4)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let buf = mutated_pcap seed in
      let reference =
        Analysis.Flows.aggregate (Analysis.Digest.pcap_to_acaps buf)
      in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              Analysis.Digest.pcap_to_flows ~pool buf = reference
              && Analysis.Flows.aggregate
                   (Analysis.Digest.pcap_to_acaps ~pool buf)
                 = reference))
        [ 1; 2; 4 ])

let test_overlay_no_fallback_on_generated_traffic () =
  (* Generated stacks nest at most one pseudowire re-entry, well inside
     the overlay's depth budget: everything should take the fast path. *)
  let buf = adversarial_pcap 42 in
  let idx = Packet.Pcapng.index_any buf in
  let ov = OV.create () in
  Array.iter
    (fun (e : Packet.Pcap.index_entry) ->
      OV.classify ov ~orig_len:e.Packet.Pcap.orig_len
        (Packet.Pcap.Reader.slice buf e))
    idx;
  Alcotest.(check int) "all frames classified by the cursor"
    (Array.length idx) (OV.classified ov);
  Alcotest.(check int) "no fallbacks" 0 (OV.fallbacks ov)

let test_overlay_fallback_on_deep_nesting () =
  (* A pathological pw-in-pw-in-pw nest exceeds the depth budget and
     must defer to the reference dissector — with identical results. *)
  let rng = Frame_gen.rng_of_seed 7 in
  let rec nest depth =
    if depth = 0 then
      [ Frame_gen.ethernet rng; Frame_gen.ipv4 rng; Frame_gen.udp_for rng None ]
    else Frame_gen.ethernet rng :: Frame_gen.mpls rng :: H.Pseudowire :: nest (depth - 1)
  in
  let stack = nest 5 in
  let b = Packet.Codec.encode (Packet.Frame.make stack ~payload_len:40) in
  let slice = S.make b ~off:0 ~len:(Bytes.length b) in
  let ov = OV.create () in
  OV.classify ov ~orig_len:(Bytes.length b) slice;
  Alcotest.(check int) "deep nest falls back" 1 (OV.fallbacks ov);
  let r = Dissect.Acap.of_slice ~ts:0.0 ~orig_len:(Bytes.length b) slice in
  Alcotest.(check (option string)) "fallback key identical"
    (Dissect.Acap.flow_key r) (OV.key ov)

(* --- driver: batched replay ≡ per-event replay --- *)

let batch_fingerprint ~seed ~pool_size ~slab ~batch_events =
  Pool.with_pool ~size:pool_size @@ fun pool ->
  let engine = Simcore.Engine.create () in
  let fabric = Testbed.Fablib.create ~seed engine in
  let driver = Traffic.Driver.create ~pool ~slab ~batch_events fabric ~seed in
  Traffic.Driver.start driver ~until:3600.0;
  Simcore.Engine.run ~until:3600.0 engine;
  let specs = ref [] in
  let tx = ref 0.0 in
  let m = Testbed.Fablib.model fabric in
  Array.iter
    (fun (site : Testbed.Info_model.site) ->
      let name = site.Testbed.Info_model.name in
      let sw = Testbed.Fablib.switch fabric ~site:name in
      List.iter
        (fun port ->
          tx :=
            !tx
            +. (Testbed.Switch.read_counters sw ~port).Testbed.Switch.tx_bytes;
          List.iter
            (fun (a : Testbed.Switch.attachment) ->
              match Traffic.Driver.resolver driver a.Testbed.Switch.flow with
              | Some spec -> specs := spec :: !specs
              | None -> ())
            (Testbed.Switch.attachments sw ~port))
        (Testbed.Fablib.all_ports fabric ~site:name))
    m.Testbed.Info_model.sites;
  let specs =
    List.sort_uniq
      (fun (a : Traffic.Flow_model.spec) b ->
        compare a.Traffic.Flow_model.flow_id b.Traffic.Flow_model.flow_id)
      !specs
  in
  (Traffic.Driver.spawned_flows driver, specs, !tx)

let prop_batched_replay_identical =
  QCheck.Test.make ~count:5
    ~name:"batched slab replay ≡ per-event (pools 1/2/4 × slab lengths)"
    QCheck.(
      triple (int_range 0 3) (QCheck.oneofl [ 1; 2; 4 ])
        (QCheck.oneofl [ 300.0; 900.0; 7200.0 ]))
    (fun (seed, pool_size, slab) ->
      batch_fingerprint ~seed ~pool_size ~slab ~batch_events:true
      = batch_fingerprint ~seed ~pool_size ~slab ~batch_events:false)

let suites =
  [
    ( "overlay",
      [
        Alcotest.test_case "no fallback on generated traffic" `Quick
          test_overlay_no_fallback_on_generated_traffic;
        Alcotest.test_case "deep nesting falls back, identically" `Quick
          test_overlay_fallback_on_deep_nesting;
      ] );
    ( "overlay.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_fast_accessors_equal;
          prop_overlay_matches_record_per_frame;
          prop_overlay_digest_identical;
          prop_sliced_acaps_identical;
        ] );
    ( "overlay.fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ prop_fuzz_per_frame; prop_fuzz_digest ] );
    ( "overlay.batched-driver",
      [ QCheck_alcotest.to_alcotest prop_batched_replay_identical ] );
  ]
