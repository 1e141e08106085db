type config = {
  streams : int;
  bottleneck_rate : float;
  rtt : float;
  mss : int;
  receive_window : float;
  duration : float;
}

let default =
  {
    streams = 1;
    bottleneck_rate = 11e9;
    rtt = 1e-3;
    mss = 1448;
    receive_window = 4.0 *. 1048576.0;
    duration = 10.0;
  }

type second_sample = {
  interval_start : float;
  goodput : float;
  retransmits : int;
}

type result = {
  samples : second_sample list;
  mean_goodput : float;
  total_retransmits : int;
  peak_goodput : float;
}

type stream = { mutable cwnd : float; mutable ssthresh : float }

let run ?(seed = 11) config =
  if config.streams < 1 then invalid_arg "Iperf.run: streams";
  if config.duration <= 0.0 then invalid_arg "Iperf.run: duration";
  let rng = Netcore.Rng.create seed in
  let mss = float_of_int config.mss in
  let streams =
    Array.init config.streams (fun _ ->
        { cwnd = 10.0 *. mss; ssthresh = config.receive_window /. 2.0 })
  in
  let bottleneck_bytes = config.bottleneck_rate /. 8.0 in
  let samples = ref [] in
  let total_retx = ref 0 in
  let t = ref 0.0 in
  let interval_bytes = ref 0.0 and interval_retx = ref 0 and interval_start = ref 0.0 in
  while !t < config.duration do
    (* Demand this RTT. *)
    let demand =
      Array.fold_left (fun acc s -> acc +. (s.cwnd /. config.rtt)) 0.0 streams
    in
    let delivered_rate = Float.min demand bottleneck_bytes in
    interval_bytes := !interval_bytes +. (delivered_rate *. config.rtt);
    (* Congestion response: when demand exceeds the bottleneck, the
       queue overflows and a random subset of streams sees loss. *)
    if demand > 1.08 *. bottleneck_bytes then begin
      Array.iter
        (fun s ->
          if Netcore.Rng.bernoulli rng (0.7 /. float_of_int config.streams) then begin
            s.ssthresh <- Float.max (2.0 *. mss) (s.cwnd /. 2.0);
            s.cwnd <- s.ssthresh;
            incr total_retx;
            incr interval_retx
          end)
        streams
    end
    else
      (* Growth: slow start below ssthresh, else one MSS per RTT. *)
      Array.iter
        (fun s ->
          let grown =
            if s.cwnd < s.ssthresh then s.cwnd *. 2.0 else s.cwnd +. mss
          in
          s.cwnd <- Float.min config.receive_window grown)
        streams;
    t := !t +. config.rtt;
    if !t -. !interval_start >= 1.0 || !t >= config.duration then begin
      let span = !t -. !interval_start in
      if span > 0.0 then
        samples :=
          {
            interval_start = !interval_start;
            goodput = !interval_bytes *. 8.0 /. span;
            retransmits = !interval_retx;
          }
          :: !samples;
      interval_start := !t;
      interval_bytes := 0.0;
      interval_retx := 0
    end
  done;
  let samples = List.rev !samples in
  let total_bits =
    List.fold_left
      (fun acc s -> acc +. (s.goodput *. 1.0))
      0.0 samples
  in
  let mean = total_bits /. float_of_int (max 1 (List.length samples)) in
  let peak = List.fold_left (fun acc s -> Float.max acc s.goodput) 0.0 samples in
  { samples; mean_goodput = mean; total_retransmits = !total_retx; peak_goodput = peak }
