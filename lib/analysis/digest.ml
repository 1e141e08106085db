(* The zero-copy decode path.  One sequential walk over record headers
   (Pcapng.fold_any) hands each record's offset and length in the
   capture buffer to the dissector, which reads the frame's headers
   where they sit onto a reused tape; per-packet allocation is bounded
   by the abstract output, never by payload sizes.  Each frame is
   dissected into one reused Acap.Fields: the fold hands it straight to
   its consumer and builds no index, while the record path indexes the
   capture (the same walk, collecting entries) and builds one record
   per frame, fanning index ranges out over the pool. *)

(* Decode counters are bumped once per capture (never per packet), so
   the registry costs the decode a bounded number of words per frame:
   the [gates] case "decode registry overhead" holds it under 0.25. *)
let obs_packets =
  Obs.Registry.counter Obs.Registry.default "packets_total"
    ~help:"Packets decoded by the offline digest"
    ~labels:[ ("stage", "digest") ]

let obs_capture_bytes =
  Obs.Registry.counter Obs.Registry.default "capture_bytes_total"
    ~help:"Capture-buffer bytes fed to the offline digest"

let count_decoded buf ~frames =
  if Obs.Registry.enabled () then begin
    Obs.Registry.inc obs_packets (float_of_int frames);
    Obs.Registry.inc obs_capture_bytes (float_of_int (Bytes.length buf))
  end

(* Accepts both classic pcap and pcapng. *)
let index buf =
  let idx =
    Obs.Span.timed ~stage:"digest.index" (fun () -> Packet.Pcapng.index_any buf)
  in
  count_decoded buf ~frames:(Array.length idx);
  idx

let fold_pcap buf ~init ~f =
  Obs.Span.timed ~stage:"digest.dissect" @@ fun () ->
  let fields = Dissect.Acap.Fields.create () in
  let frames = ref 0 in
  let acc =
    Packet.Pcapng.fold_any buf ~init ~f:(fun acc ~ts ~orig_len ~off ~cap_len ->
        incr frames;
        Dissect.Acap.Fields.dissect fields buf ~off ~cap_len ~orig_len;
        f acc fields ~orig_len ~ts)
  in
  count_decoded buf ~frames:!frames;
  acc

let range_to_acaps buf idx ~lo ~hi =
  let fields = Dissect.Acap.Fields.create () in
  let rec go i acc =
    if i < lo then acc
    else begin
      let e = idx.(i) in
      Dissect.Acap.Fields.dissect fields buf ~off:e.Packet.Pcap.data_off
        ~cap_len:e.Packet.Pcap.cap_len ~orig_len:e.Packet.Pcap.orig_len;
      go (i - 1)
        (Dissect.Acap.of_fields fields ~ts:e.Packet.Pcap.ts
           ~orig_len:e.Packet.Pcap.orig_len
        :: acc)
    end
  in
  go (hi - 1) []

let pcap_to_acaps ?(pool = Parallel.Pool.sequential) buf =
  (* Dissection is pure and range results concatenate in range order,
     so the output is identical at any pool size or range partition. *)
  let idx = index buf in
  Obs.Span.timed ~stage:"digest.dissect" (fun () ->
      List.concat
        (Parallel.Pool.map_ranges pool ~n:(Array.length idx)
           (range_to_acaps buf idx)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

let sample_acaps (sample : Patchwork.Capture.sample) =
  match sample.Patchwork.Capture.pcap with
  | Some buf -> pcap_to_acaps buf
  | None -> sample.Patchwork.Capture.acaps
