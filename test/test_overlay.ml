(* Whole-capture decode identities: the digest, which reads each frame
   where it lies in the capture buffer, reproduces the copying decode
   record for record, over adversarial captures and over seeded
   mutations of well-formed frames (where the record decode must never
   raise), and a capture's profile is its records' profile.  The suites
   keep the [overlay.*] names they had when the overlay cursor, since
   removed, was checked here too.  Over the same captures,
   [dissect.tape] checks the dissector's tape walk against the typed
   walk it replaced ([Oracle.Typed_dissector]), and that frames with
   equal flow identities render equal keys. *)

module H = Packet.Headers
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

(* The digest's records are the copying decode's, and their flows,
   weighted at 1 in chunks of any size, are the flows of the whole
   list: the grouping never shows. *)
let prop_sliced_acaps_identical =
  QCheck.Test.make ~count:20
    ~name:"sliced acaps ≡ copying decode over adversarial captures"
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, chunk) ->
      let buf = adversarial_pcap seed in
      let digest = Analysis.Digest.pcap_to_acaps buf in
      digest = Oracle.acaps_copying buf
      && Analysis.Flows.aggregate
           ~weights:(List.map (fun c -> (c, 1.0)) (chunks chunk digest))
           []
         = Analysis.Flows.aggregate digest)

(* --- the digest fold ≡ the record path, frame by frame --- *)

(* Per frame, what the fold hands its consumer (the stack as the
   profile reads it, token by token, the flow key, the lengths and
   time, the RST flag), and the same fields of the records
   [pcap_to_acaps] builds. *)
let folded buf =
  let module F = Dissect.Acap.Fields in
  List.rev
    (Analysis.Digest.fold_pcap buf ~init:[] ~f:(fun acc fields ~orig_len ~ts ->
         ( List.init (F.depth fields) (F.token fields),
           F.key fields,
           orig_len,
           ts,
           F.tcp_rst fields )
         :: acc))

let recorded buf =
  List.map
    (fun (r : Dissect.Acap.record) ->
      (r.Dissect.Acap.stack, r.Dissect.Acap.key, r.Dissect.Acap.orig_len, r.Dissect.Acap.ts,
       r.Dissect.Acap.tcp_rst))
    (Analysis.Digest.pcap_to_acaps buf)

let fold_agrees buf = folded buf = recorded buf

let prop_fold_adversarial =
  QCheck.Test.make ~count:20
    ~name:"digest fold ≡ sliced acaps per frame over adversarial captures"
    QCheck.small_int
    (fun seed -> fold_agrees (adversarial_pcap seed))

(* Every [Stack_builder] template, one per catalog service,
   encapsulation and direction, written whole, cut one byte short of
   its headers and cut at the header length. *)
let templates_pcap (seed, payload_len) =
  let rng = Rng.create seed in
  let w = Packet.Pcap.Writer.create () in
  let ts = ref 0.0 in
  Array.iter
    (fun service ->
      List.iter
        (fun (mpls_labels, use_pseudowire, use_vxlan, use_ipv6) ->
          let forward =
            Traffic.Stack_builder.forward rng
              { Traffic.Stack_builder.vlan_id = 100 + Rng.int rng 3900; mpls_labels;
                use_pseudowire; use_vxlan; use_ipv6; service }
          in
          List.iter
            (fun stack ->
              let frame = Packet.Frame.make ~payload_len stack in
              let bytes = Packet.Codec.encode frame in
              let wire = Bytes.length bytes
              and header = Packet.Frame.header_size_total frame in
              List.iter
                (fun snap ->
                  ts := !ts +. 1e-3;
                  Packet.Pcap.Writer.add w ~ts:!ts ~orig_len:wire
                    (Bytes.sub bytes 0 (min wire snap)))
                [ wire; header - 1; header ])
            [ forward; Traffic.Stack_builder.reverse forward ])
        Test_dissect.encapsulations)
    Dissect.Services.catalog;
  Packet.Pcap.Writer.contents w

let prop_fold_templates =
  QCheck.Test.make ~count:10
    ~name:"digest fold ≡ sliced acaps per frame over every template"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 1400))
    (fun case -> fold_agrees (templates_pcap case))

(* --- a capture's profile ≡ its records' profile --- *)

(* [Profile.of_pcap] folds the capture; [Profile.of_records] counts the
   records [pcap_to_acaps] builds from it.  The two profiles are equal,
   or both sides raise the same declared error. *)
let outcome f =
  match f () with
  | p -> Ok p
  | exception Packet.Pcap.Reader.Malformed m -> Error ("pcap: " ^ m)
  | exception Packet.Pcapng.Malformed m -> Error ("pcapng: " ^ m)

let profiles_agree buf =
  let module P = Analysis.Profile in
  match
    ( outcome (fun () -> P.of_pcap buf),
      outcome (fun () -> P.of_records (Analysis.Digest.pcap_to_acaps buf)) )
  with
  | Ok a, Ok b -> P.equal a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let prop_profile_adversarial =
  QCheck.Test.make ~count:20
    ~name:"capture profile ≡ its records' profile over adversarial captures"
    QCheck.small_int
    (fun seed -> profiles_agree (adversarial_pcap seed))

let prop_profile_templates =
  QCheck.Test.make ~count:10
    ~name:"capture profile ≡ its records' profile over every template"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 1400))
    (fun case -> profiles_agree (templates_pcap case))

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
          (Oracle.acap_of_bytes ~ts:0.0 ~orig_len data ~off:0 ~cap_len:(Bytes.length data))
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
    ~name:"mutated captures: sliced acaps ≡ copying decode"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let buf = mutated_pcap seed in
      Analysis.Digest.pcap_to_acaps buf = Oracle.acaps_copying buf)

let prop_fold_mutated =
  QCheck.Test.make ~count:15
    ~name:"mutated captures: digest fold ≡ sliced acaps per frame"
    QCheck.(int_bound 1_000_000)
    (fun seed -> fold_agrees (mutated_pcap seed))

(* The mutated frames, and then the same capture with its file bytes
   mutated too, which may break its record headers: the index then
   raises on both sides. *)
let prop_profile_mutated =
  QCheck.Test.make ~count:15
    ~name:"mutated captures: capture profile ≡ its records' profile"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let buf = mutated_pcap seed in
      profiles_agree buf
      && profiles_agree (mutate (Frame_gen.rng_of_seed (seed + 1)) buf))

(* --- the tape walk ≡ the typed walk --- *)

(* A capture's records, each with the buffer it lies in. *)
let records buf = List.map (fun e -> (buf, e)) (Oracle.index buf)

(* Every cut of a mutated frame, from no bytes to all of them, each
   claiming the frame's wire length. *)
let cuts rng =
  let data, orig_len = mutated_frame rng in
  List.init (Bytes.length data + 1) (fun k ->
      (data, { Oracle.ts = 0.0; orig_len; off = 0; cap_len = k }))

let mutated_cuts seed =
  let rng = Frame_gen.rng_of_seed seed in
  List.concat (List.init 20 (fun _ -> cuts rng))

(* The tape read back into typed headers is the typed walk's result,
   and the record abstracted from the tape is the one abstracted from
   the typed walk's headers. *)
let tape_agrees (bytes, { Oracle.ts; orig_len; off; cap_len }) =
  let typed = Oracle.Typed_dissector.dissect bytes ~off ~cap_len ~orig_len in
  Dissect.Dissector.dissect bytes ~off ~cap_len ~orig_len = typed
  && Oracle.acap_of_bytes ~ts ~orig_len bytes ~off ~cap_len
     = Oracle.acap_of_dissection ~ts ~orig_len ~cap_len typed

let prop_tape_adversarial =
  QCheck.Test.make ~count:20 ~name:"tape walk ≡ typed walk over adversarial captures"
    QCheck.small_int
    (fun seed -> List.for_all tape_agrees (records (adversarial_pcap seed)))

let prop_tape_templates =
  QCheck.Test.make ~count:10 ~name:"tape walk ≡ typed walk over every template"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 1400))
    (fun case -> List.for_all tape_agrees (records (templates_pcap case)))

let prop_tape_mutated =
  QCheck.Test.make ~count:30 ~name:"tape walk ≡ typed walk over every cut of mutated frames"
    QCheck.(int_bound 1_000_000)
    (fun seed -> List.for_all tape_agrees (mutated_cuts seed))

(* --- equal flow identities render equal keys --- *)

(* Each frame of random stacks, then the frames that differ from it in
   one field: in VLAN PCP, in MPLS TC or in MPLS TTL, which the key
   does not read, or in one the key does read (a vid, a label, a bit of
   the source or destination address, a port, TCP for UDP), so that an
   identity blind to such a field shares one identity between two
   keys.  A third of the records are snapped anywhere. *)
let variants_pcap seed =
  let rng = Frame_gen.rng_of_seed seed in
  let w = Packet.Pcap.Writer.create () in
  let flip_v4 a =
    Netcore.Ipv4_addr.of_int32
      (Int32.logxor (Netcore.Ipv4_addr.to_int32 a) (Int32.shift_left 1l (Rng.int rng 32)))
  and flip_v6 a =
    let hi, lo = Netcore.Ipv6_addr.halves a and bit = Int64.shift_left 1L (Rng.int rng 64) in
    if Rng.bool rng then Netcore.Ipv6_addr.make (Int64.logxor hi bit) lo
    else Netcore.Ipv6_addr.make hi (Int64.logxor lo bit)
  in
  let port p = (p + 1) land 0xFFFF in
  let variants =
    [
      (function H.Vlan v -> H.Vlan { v with H.pcp = (v.H.pcp + 1) land 7 } | h -> h);
      (function H.Mpls m -> H.Mpls { m with H.tc = (m.H.tc + 1) land 7 } | h -> h);
      (function H.Mpls m -> H.Mpls { m with H.ttl = (m.H.ttl + 1) land 0xFF } | h -> h);
      (function H.Vlan v -> H.Vlan { v with H.vid = 1 + (v.H.vid mod 4094) } | h -> h);
      (function H.Mpls m -> H.Mpls { m with H.label = (m.H.label + 1) land 0xFFFFF } | h -> h);
      (function
      | H.Ipv4 a -> H.Ipv4 { a with H.src = flip_v4 a.H.src }
      | H.Ipv6 a -> H.Ipv6 { a with H.src = flip_v6 a.H.src }
      | h -> h);
      (function
      | H.Ipv4 a -> H.Ipv4 { a with H.dst = flip_v4 a.H.dst }
      | H.Ipv6 a -> H.Ipv6 { a with H.dst = flip_v6 a.H.dst }
      | h -> h);
      (function
      | H.Tcp t -> H.Tcp { t with H.src_port = port t.H.src_port }
      | H.Udp u -> H.Udp { u with H.src_port = port u.H.src_port }
      | h -> h);
      (function
      | H.Tcp t -> H.Tcp { t with H.dst_port = port t.H.dst_port }
      | H.Udp u -> H.Udp { u with H.dst_port = port u.H.dst_port }
      | h -> h);
    ]
  in
  (* TCP for UDP, and no application header above it. *)
  let rec as_udp = function
    | H.Tcp { src_port; dst_port; _ } :: _ -> [ H.Udp { src_port; dst_port } ]
    | h :: rest -> h :: as_udp rest
    | [] -> []
  in
  for i = 0 to 29 do
    let frame = Frame_gen.random_frame ~max_payload:200 rng in
    List.iter
      (fun headers ->
        let b =
          Packet.Codec.encode
            (Packet.Frame.make headers ~payload_len:frame.Packet.Frame.payload_len)
        in
        let keep =
          if Rng.bernoulli rng 0.3 then 1 + Rng.int rng (Bytes.length b) else Bytes.length b
        in
        Packet.Pcap.Writer.add w ~ts:(float_of_int i *. 1e-3) ~orig_len:(Bytes.length b)
          (Bytes.sub b 0 keep))
      (frame.Packet.Frame.headers
       :: as_udp frame.Packet.Frame.headers
       :: List.map (fun f -> List.map f frame.Packet.Frame.headers) variants)
  done;
  Packet.Pcap.Writer.contents w

(* Dissected one after another into one [Fields], as the fold does: a
   frame has an identity exactly when it has a key, and every frame
   with a given identity renders the same key. *)
let identities_agree records =
  let module F = Dissect.Acap.Fields in
  let fields = F.create () and seen = Hashtbl.create 64 in
  List.for_all
    (fun (bytes, { Oracle.orig_len; off; cap_len; _ }) ->
      F.dissect fields bytes ~off ~cap_len ~orig_len;
      let len = F.identity_length fields in
      match F.key fields with
      | None -> len = 0
      | Some key -> (
        len > 0
        &&
        let id = Bytes.sub_string (F.identity fields) 0 len in
        match Hashtbl.find_opt seen id with
        | Some k -> String.equal k key
        | None ->
          Hashtbl.add seen id key;
          true))
    records

let prop_identity_adversarial =
  QCheck.Test.make ~count:20
    ~name:"equal identities, equal keys over adversarial captures and one-field variants"
    QCheck.small_int
    (fun seed ->
      identities_agree (records (adversarial_pcap seed) @ records (variants_pcap seed)))

let prop_identity_templates =
  QCheck.Test.make ~count:10 ~name:"equal identities, equal keys over every template"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 1400))
    (fun case -> identities_agree (records (templates_pcap case)))

let prop_identity_mutated =
  QCheck.Test.make ~count:30
    ~name:"equal identities, equal keys over every cut of mutated frames"
    QCheck.(int_bound 1_000_000)
    (fun seed -> identities_agree (mutated_cuts seed))

let suites =
  [
    ( "overlay.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_sliced_acaps_identical;
          prop_fold_adversarial;
          prop_fold_templates;
          prop_profile_adversarial;
          prop_profile_templates;
        ] );
    ( "overlay.fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ prop_fuzz_per_frame; prop_fuzz_digest; prop_fold_mutated; prop_profile_mutated ] );
    ( "dissect.tape",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_tape_adversarial;
          prop_tape_templates;
          prop_tape_mutated;
          prop_identity_adversarial;
          prop_identity_templates;
          prop_identity_mutated;
        ] );
  ]
