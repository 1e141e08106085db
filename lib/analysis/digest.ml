(* The indexed, zero-copy decode path.  A first sequential pass walks
   record headers only and produces an offset/length/timestamp index
   (Pcap.Reader.index / Pcapng.index); dissection then fans index ranges
   out over the pool and reads headers in place through Packet.Slice,
   so per-packet allocation is bounded by the abstract output, never by
   payload sizes. *)

let range_to_acaps buf idx ~lo ~hi =
  let rec go i acc =
    if i < lo then acc else go (i - 1) (Dissect.Acap.of_entry buf idx.(i) :: acc)
  in
  go (hi - 1) []

(* Decode counters are bumped once per capture (never per packet), so
   the instrumented fast path stays within the bench's 5%-overhead
   budget. *)
let obs_packets =
  Obs.Registry.counter Obs.Registry.default "packets_total"
    ~help:"Packets decoded by the offline digest"
    ~labels:[ ("stage", "digest") ]

let obs_capture_bytes =
  Obs.Registry.counter Obs.Registry.default "capture_bytes_total"
    ~help:"Capture-buffer bytes fed to the offline digest"

let record_decode buf idx =
  if Obs.Registry.enabled () then begin
    Obs.Registry.inc obs_packets (float_of_int (Array.length idx));
    Obs.Registry.inc obs_capture_bytes (float_of_int (Bytes.length buf))
  end

let pcap_to_acaps ?(pool = Parallel.Pool.sequential) buf =
  (* Accepts both classic pcap and pcapng.  Dissection is pure and range
     results concatenate in range order, so the output is identical at
     any pool size or range partition. *)
  let idx =
    Obs.Span.timed ~stage:"digest.index" (fun () -> Packet.Pcapng.index_any buf)
  in
  record_decode buf idx;
  Obs.Span.timed ~stage:"digest.dissect" (fun () ->
      List.concat
        (Parallel.Pool.map_ranges pool ~n:(Array.length idx)
           (range_to_acaps buf idx)))

(* Overlay counters, batched once per capture like the decode counters. *)
let obs_overlay_classified =
  Obs.Registry.counter Obs.Registry.default "overlay_classified_total"
    ~help:"Frames classified by the zero-alloc overlay cursor"

let obs_overlay_fallbacks =
  Obs.Registry.counter Obs.Registry.default "overlay_fallbacks_total"
    ~help:"Overlay frames deferred to the reference record dissector"

let record_overlay_stats per_range =
  if Obs.Registry.enabled () then begin
    let sum f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 per_range) in
    Obs.Registry.inc obs_overlay_classified (sum fst);
    Obs.Registry.inc obs_overlay_fallbacks (sum snd)
  end

let pcap_to_flows ?(pool = Parallel.Pool.sequential) buf =
  (* Fused single pass over the zero-alloc overlay cursor: each index
     range classifies frames in place through Packet.Slice reads and
     streams key/ts/bytes/RST straight into a per-range flow shard —
     no header records, no intermediate acaps, live memory O(flows).
     The overlay agrees with the record dissector on key and RST for
     every frame (deep encapsulations fall back to it), so the merge is
     bit-identical to [Flows.aggregate (pcap_to_acaps buf)] at any pool
     size. *)
  let idx =
    Obs.Span.timed ~stage:"digest.index" (fun () -> Packet.Pcapng.index_any buf)
  in
  record_decode buf idx;
  let results =
    Obs.Span.timed ~stage:"digest.overlay" (fun () ->
        Parallel.Pool.map_ranges pool ~n:(Array.length idx) (fun ~lo ~hi ->
            let ov = Dissect.Overlay.create () in
            let shard = Flows.Shard.create () in
            for i = lo to hi - 1 do
              let e = idx.(i) in
              let slice = Packet.Pcap.Reader.slice buf e in
              Dissect.Overlay.classify ov ~orig_len:e.Packet.Pcap.orig_len
                slice;
              match Dissect.Overlay.key ov with
              | Some key ->
                Flows.Shard.add_keyed shard ~key ~ts:e.Packet.Pcap.ts
                  ~bytes:e.Packet.Pcap.orig_len ~rst:(Dissect.Overlay.rst ov)
              | None -> ()
            done;
            (shard, (Dissect.Overlay.classified ov, Dissect.Overlay.fallbacks ov))))
  in
  record_overlay_stats (List.map snd results);
  Flows.merge (List.map (fun (s, _) -> (s, 1.0)) results)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

let pcap_file_to_acaps ?pool path = pcap_to_acaps ?pool (read_file path)
let pcap_file_to_flows ?pool path = pcap_to_flows ?pool (read_file path)

let sample_acaps ?pool (sample : Patchwork.Capture.sample) =
  match sample.Patchwork.Capture.pcap with
  | Some buf -> pcap_to_acaps ?pool buf
  | None -> sample.Patchwork.Capture.acaps

let write_acap_file path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (Dissect.Acap.to_line r);
          output_char oc '\n')
        records)

let read_acap_file path =
  (* Binary mode: acap lines are written byte-for-byte, and text-mode
     CRLF translation on some platforms would corrupt the round-trip. *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
          match Dissect.Acap.of_line line with
          | Ok r -> go (lineno + 1) (r :: acc)
          | Error msg ->
            failwith (Printf.sprintf "%s: line %d: %s" path lineno msg))
      in
      go 1 [])
