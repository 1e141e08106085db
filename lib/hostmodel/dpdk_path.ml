open Netcore

type config = {
  profile : Host_profile.t;
  cores : int;
  truncation : int;
  dirty_background_ratio : float;
  dirty_ratio : float;
  burstiness : float;
  baseline_loss : float;
}

let default_config =
  {
    profile = Host_profile.default;
    cores = 5;
    truncation = 200;
    dirty_background_ratio = 60.0;
    dirty_ratio = 80.0;
    burstiness = 0.035;
    baseline_loss = 0.0008;
  }

type result = {
  offered_frames : float;
  captured_frames : float;
  dropped_frames : float;
  loss_percent : float;
  bytes_written : float;
  peak_cache_used_percent : float;
  throttled_seconds : float;
  writev_latency : Histogram.Log2.t;
}

let capacity_rate config ~frame_size =
  let pps =
    Host_profile.dpdk_capacity_pps config.profile ~cores:config.cores
      ~truncation:config.truncation
  in
  Units.bps_of_pps pps ~frame_bytes:frame_size

let run config ~offered_rate ~frame_size ~duration =
  if config.cores <= 0 || config.cores > config.profile.Host_profile.cores then
    invalid_arg "Dpdk_path.run: core count out of range";
  if config.truncation <= 0 then invalid_arg "Dpdk_path.run: truncation";
  if duration <= 0.0 then invalid_arg "Dpdk_path.run: duration";
  let rng = Rng.create 42 in
  let p = config.profile in
  let cache =
    Page_cache.create
      ~free_cache_bytes:(Host_profile.free_cache_bytes p)
      ~drain_rate:p.Host_profile.storage_drain_rate
      ~dirty_background_ratio:config.dirty_background_ratio
      ~dirty_ratio:config.dirty_ratio
  in
  let offered_pps = Units.pps_of_bps offered_rate ~frame_bytes:frame_size in
  let capacity_pps =
    Host_profile.dpdk_capacity_pps p ~cores:config.cores ~truncation:config.truncation
  in
  let queue_capacity = float_of_int (p.Host_profile.rx_queue_depth * config.cores) in
  let stored_per_frame = float_of_int (min config.truncation frame_size) in
  let writev_hist = Histogram.Log2.create () in
  let dt = 1e-3 in
  let steps = int_of_float (duration /. dt) in
  let queue = ref 0.0 in
  let offered = ref 0.0 and captured = ref 0.0 and dropped = ref 0.0 in
  let peak_used = ref 0.0 and throttled_time = ref 0.0 in
  (* writev accounting: one call per batch of 128 captured frames. *)
  let frames_toward_batch = ref 0.0 in
  let batch = float_of_int p.Host_profile.writev_batch in
  (* AR(1) load jitter: bursts persist for tens of milliseconds, as real
     generators and NIC batching produce, rather than white noise. *)
  let ar = ref 0.0 in
  let ar_rho = 0.95 in
  let ar_innov = sqrt (1.0 -. (ar_rho *. ar_rho)) in
  for _ = 1 to steps do
    ar := (ar_rho *. !ar) +. (ar_innov *. Rng.gaussian rng ~mu:0.0 ~sigma:1.0);
    let jitter = Float.max 0.0 (1.0 +. (config.burstiness *. !ar)) in
    let arriving = float_of_int (Rng.poisson rng ~mean:(offered_pps *. dt *. jitter)) in
    offered := !offered +. arriving;
    let space = queue_capacity -. !queue in
    let accepted = Float.min arriving space in
    dropped := !dropped +. (arriving -. accepted);
    queue := !queue +. accepted;
    (* Processing, paced down by writeback throttling. *)
    let throttle = Page_cache.throttle_factor cache in
    if throttle < 1.0 then throttled_time := !throttled_time +. dt;
    let processed = Float.min !queue (capacity_pps *. throttle *. dt) in
    queue := !queue -. processed;
    captured := !captured +. processed;
    Page_cache.write cache (processed *. stored_per_frame);
    Page_cache.advance cache ~dt;
    peak_used := Float.max !peak_used (Page_cache.used_percent cache);
    (* Latency of the writev calls issued for these frames. *)
    frames_toward_batch := !frames_toward_batch +. processed;
    let calls = int_of_float (!frames_toward_batch /. batch) in
    if calls > 0 then begin
      frames_toward_batch := !frames_toward_batch -. (float_of_int calls *. batch);
      let base =
        p.Host_profile.writev_base_latency
        +. (p.Host_profile.writev_byte_latency *. batch *. stored_per_frame)
      in
      let latency = base *. Page_cache.writer_latency_multiplier cache in
      (* Record in nanoseconds, with sampling jitter. *)
      let sampled = latency *. (0.75 +. (0.5 *. Rng.float rng)) *. 1e9 in
      Histogram.Log2.add writev_hist ~count:calls sampled
    end
  done;
  (* Residual descriptor/NIC noise: even far below capacity, real runs
     show a small constant drop floor. *)
  let noise = !offered *. config.baseline_loss *. (0.5 +. Rng.float rng) in
  let dropped_total = !dropped +. noise in
  let loss_percent =
    if !offered > 0.0 then 100.0 *. dropped_total /. !offered else 0.0
  in
  {
    offered_frames = !offered;
    captured_frames = !captured;
    dropped_frames = dropped_total;
    loss_percent;
    bytes_written = Page_cache.total_written cache;
    peak_cache_used_percent = !peak_used;
    throttled_seconds = !throttled_time;
    writev_latency = writev_hist;
  }

(* This path's identity in the loss-attribution ledger. *)
let host_path = Obs.Ledger.Dpdk
