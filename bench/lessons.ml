(* §8.3 lessons from deployment: why capture and analysis are
   decoupled.  A 12-hour capture produces tens of gigabytes; analyzing
   it is dominated by the protocol dissectors and takes far longer than
   the capture itself — so holding testbed resources through analysis
   would multiply Patchwork's footprint. *)

let run () =
  Paper.section "§8.3 capture/analysis decoupling";
  (* Measure this machine's dissection throughput over realistic
     truncated frames, as the digest dissects a stored frame: the one
     walk, abstracted into one reused [Acap.Fields]. *)
  let rng = Netcore.Rng.create 3 in
  let frames =
    List.init 200 (fun _ ->
        let f = Frame_samples.random rng in
        Packet.Codec.encode f)
  in
  let fields = Dissect.Acap.Fields.create () in
  let n_iters = 2_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n_iters do
    List.iter
      (fun b ->
        let len = Bytes.length b in
        Dissect.Acap.Fields.dissect fields b ~off:0 ~cap_len:len ~orig_len:len)
      frames
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let per_frame = elapsed /. float_of_int (n_iters * List.length frames) in
  let frames_per_second = 1.0 /. per_frame in
  Paper.row "dissection throughput on this host: %.2f us/frame (%.2e frames/s)"
    (per_frame *. 1e6) frames_per_second;
  (* A 12-hour capture at the paper's sampling settings on a port of
     average activity. *)
  let sample_seconds = 20.0 and interval = 300.0 in
  let capture_hours = 12.0 in
  let samples = capture_hours *. 3600.0 /. interval in
  let avg_pps = 1.0e5 in
  let frames_captured = samples *. sample_seconds *. avg_pps in
  let stored_bytes = frames_captured *. 216.0 in
  Paper.row "a %.0f h capture: %.2e frames, %.1f GB of pcap ('tens of gigabytes')"
    capture_hours frames_captured (stored_bytes /. 1e9);
  (* The paper's pipeline runs Wireshark's dissectors, roughly three
     orders of magnitude slower per frame than this library; that is
     where 'several days' comes from. *)
  let tshark_per_frame = 2e-3 in
  let ours = frames_captured /. frames_per_second in
  let theirs = frames_captured *. tshark_per_frame in
  Paper.row
    "dissecting those frames: %.1f min with this library vs %.1f days with Wireshark-speed dissectors (the paper's Digest)"
    (ours /. 60.0) (theirs /. 86400.0);
  Paper.row
    "paper: 'a capture lasting 12 hours can generate tens of gigabytes... analyzing this data can take several days'.";
  (* Lease accounting with and without decoupling, as slice-hours. *)
  Paper.section "§8.3 slice-hours per weekly occasion";
  let sites = 29.0 and instances = 2.0 in
  let coupled = sites *. instances *. (capture_hours +. (theirs /. 3600.0)) in
  let decoupled = sites *. instances *. capture_hours in
  Paper.row
    "decoupled: %.0f slice-hours per occasion; coupled to Wireshark-speed analysis: %.0f slice-hours (%.1fx)"
    decoupled coupled (coupled /. decoupled);
  Paper.row
    "frugality matters: 'otherwise, Patchwork would impede other experiments from starting - and thus have less to observe'."
