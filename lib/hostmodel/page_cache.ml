type t = {
  free_cache_bytes : float;
  drain_rate : float;
  dirty_background : float;  (* fraction of free cache *)
  dirty_hard : float;
  mutable dirty : float;
  mutable written : float;
}

let create ~free_cache_bytes ~drain_rate ~dirty_background_ratio ~dirty_ratio =
  if free_cache_bytes <= 0.0 then invalid_arg "Page_cache.create: cache size";
  if drain_rate < 0.0 then invalid_arg "Page_cache.create: drain rate";
  if
    dirty_background_ratio <= 0.0
    || dirty_ratio > 100.0
    || dirty_background_ratio >= dirty_ratio
  then invalid_arg "Page_cache.create: need 0 < background < dirty <= 100";
  {
    free_cache_bytes;
    drain_rate;
    dirty_background = dirty_background_ratio /. 100.0;
    dirty_hard = dirty_ratio /. 100.0;
    dirty = 0.0;
    written = 0.0;
  }

let obs_written =
  Obs.Registry.counter Obs.Registry.default "page_cache_written_bytes_total"
    ~help:"Bytes written into the simulated page cache"

let obs_drained =
  Obs.Registry.counter Obs.Registry.default "page_cache_drained_bytes_total"
    ~help:"Bytes drained from the simulated page cache by writeback"

let write t bytes =
  if bytes < 0.0 then invalid_arg "Page_cache.write: negative bytes";
  t.dirty <- Float.min t.free_cache_bytes (t.dirty +. bytes);
  t.written <- t.written +. bytes;
  if Obs.Registry.enabled () then Obs.Registry.inc obs_written bytes

let throttle_threshold t = (t.dirty_background +. t.dirty_hard) /. 2.0

let dirty_fraction t = t.dirty /. t.free_cache_bytes
let used_percent t = 100.0 *. dirty_fraction t

let advance t ~dt =
  if dt < 0.0 then invalid_arg "Page_cache.advance: negative dt";
  (* Writeback only runs once the background threshold has been
     crossed; below it dirty pages simply sit in RAM. *)
  if dirty_fraction t > t.dirty_background then begin
    let drained = Float.min t.dirty (t.drain_rate *. dt) in
    t.dirty <- t.dirty -. drained;
    if Obs.Registry.enabled () then Obs.Registry.inc obs_drained drained
  end

let throttle_factor t =
  let frac = dirty_fraction t in
  let midpoint = throttle_threshold t in
  if frac <= midpoint then 1.0
  else if frac >= t.dirty_hard then 0.02
  else begin
    (* Between the midpoint and dirty_ratio the kernel paces the writer
       toward the drain rate; interpolate the allowed fraction down. *)
    let severity = (frac -. midpoint) /. (t.dirty_hard -. midpoint) in
    Float.max 0.02 (1.0 -. (0.98 *. severity))
  end

let writer_latency_multiplier t =
  let frac = dirty_fraction t in
  let midpoint = throttle_threshold t in
  if frac <= t.dirty_background then 1.0
  else if frac <= midpoint then
    (* Flush competition: latency grows a few-fold toward the midpoint. *)
    1.0 +. (5.0 *. (frac -. t.dirty_background) /. (midpoint -. t.dirty_background))
  else begin
    (* balance_dirty_pages: the writer sleeps; two to three orders of
       magnitude above baseline, growing toward dirty_ratio. *)
    let severity =
      Float.min 1.0 ((frac -. midpoint) /. (t.dirty_hard -. midpoint))
    in
    30.0 +. (470.0 *. severity)
  end

let total_written t = t.written
