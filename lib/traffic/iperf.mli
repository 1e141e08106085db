(** An iperf3-style TCP throughput test.

    The paper's software-capture experiment (§8.1.2) drives tcpdump with
    an iperf3 client/server pair that sustains about 11 Gbps.  This
    module models that workload: N parallel TCP streams (iperf3 [-P])
    running slow-start + AIMD congestion avoidance against a bottleneck,
    reporting the familiar per-second throughput lines.

    The model is deliberately classic Reno-style: cwnd doubles per RTT
    to the slow-start threshold, then grows one MSS per RTT; when the
    aggregate offered rate exceeds the bottleneck, the overdriving
    streams halve.  That produces the sawtooth and the ~95% bottleneck
    utilization real multi-stream iperf3 shows. *)

type config = {
  streams : int;  (** parallel connections (iperf3 -P) *)
  bottleneck_rate : float;  (** bits/s of the limiting hop *)
  rtt : float;  (** round-trip time, seconds *)
  mss : int;  (** TCP payload bytes per segment *)
  receive_window : float;  (** per-stream cwnd cap, bytes *)
  duration : float;  (** test length, seconds *)
}

val default : config
(** One stream through an 11 Gbps bottleneck at 1 ms RTT — the §8.1.2
    setup. *)

type second_sample = {
  interval_start : float;
  goodput : float;  (** bits/s achieved during the interval *)
  retransmits : int;  (** loss events during the interval *)
}

type result = {
  samples : second_sample list;  (** one per second, in order *)
  mean_goodput : float;  (** bits/s over the whole test *)
  total_retransmits : int;
  peak_goodput : float;
}

val run : ?seed:int -> config -> result
