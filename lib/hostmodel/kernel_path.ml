open Netcore

type result = {
  offered_frames : float;
  captured_frames : float;
  dropped_frames : float;
  loss_percent : float;
  peak_buffer_used : float;
}

(* Bytes kept per frame. *)
let snaplen = 64

let run ~offered_rate ~frame_size ~duration =
  if duration <= 0.0 then invalid_arg "Kernel_path.run: duration";
  let rng = Rng.create 7 in
  let profile = Host_profile.default in
  let offered_pps = Units.pps_of_bps offered_rate ~frame_bytes:frame_size in
  let capacity_pps = Host_profile.kernel_capacity_pps profile in
  (* The capture buffer holds truncated frames plus pcap record
     overhead. *)
  let per_frame_bytes = float_of_int (min snaplen frame_size + 16) in
  let buffer_frames = profile.Host_profile.tcpdump_buffer_bytes /. per_frame_bytes in
  let dt = 1e-3 in
  let steps = int_of_float (duration /. dt) in
  let buffered = ref 0.0 in
  let offered = ref 0.0 and captured = ref 0.0 and dropped = ref 0.0 in
  let peak = ref 0.0 in
  for _ = 1 to steps do
    let jitter = Float.max 0.0 (1.0 +. (0.05 *. Rng.gaussian rng ~mu:0.0 ~sigma:1.0)) in
    let arriving = float_of_int (Rng.poisson rng ~mean:(offered_pps *. dt *. jitter)) in
    offered := !offered +. arriving;
    let space = buffer_frames -. !buffered in
    let accepted = Float.min arriving space in
    dropped := !dropped +. (arriving -. accepted);
    buffered := !buffered +. accepted;
    (* The consumer drains the buffer at the kernel path's capacity. *)
    let processed = Float.min !buffered (capacity_pps *. dt) in
    buffered := !buffered -. processed;
    captured := !captured +. processed;
    peak := Float.max !peak (!buffered *. per_frame_bytes)
  done;
  let loss_percent = if !offered > 0.0 then 100.0 *. !dropped /. !offered else 0.0 in
  {
    offered_frames = !offered;
    captured_frames = !captured;
    dropped_frames = !dropped;
    loss_percent;
    peak_buffer_used = !peak;
  }

let lossless_bound ~frame_size =
  Units.bps_of_pps
    (Host_profile.kernel_capacity_pps Host_profile.default)
    ~frame_bytes:frame_size

(* This path's identity in the loss-attribution ledger. *)
let host_path = Obs.Ledger.Kernel
