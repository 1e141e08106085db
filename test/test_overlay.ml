(* Whole-capture decode identities: the sliced digest reproduces the
   copying decode record for record at any pool size, over adversarial
   captures and over seeded mutations of well-formed frames (where the
   record decode must never raise).  The suites keep the [overlay.*]
   names they had when the overlay cursor, since removed, was checked
   here too. *)

module S = Packet.Slice
module H = Packet.Headers
module Pool = Parallel.Pool
module Rng = Netcore.Rng

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

(* A raise fails the property (QCheck reports the exception). *)
let prop_fuzz_per_frame =
  QCheck.Test.make ~count:500
    ~name:"mutated frames: record decode never raises"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Frame_gen.rng_of_seed seed in
      for _ = 1 to 100 do
        let data, orig_len = mutated_frame rng in
        ignore
          (Dissect.Acap.of_slice ~ts:0.0 ~orig_len
             (S.make data ~off:0 ~len:(Bytes.length data)))
      done;
      true)

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
    ~name:"mutated captures: sliced acaps ≡ copying decode (pools 1/2/4)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let buf = mutated_pcap seed in
      let reference = Oracle.acaps_copying buf in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              Analysis.Digest.pcap_to_acaps ~pool buf = reference))
        [ 1; 2; 4 ])

let suites =
  [
    ( "overlay.properties",
      [ QCheck_alcotest.to_alcotest prop_sliced_acaps_identical ] );
    ( "overlay.fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ prop_fuzz_per_frame; prop_fuzz_digest ] );
  ]
