(** The DPDK kernel-bypass capture path.

    A time-stepped simulation of Patchwork's custom DPDK application:
    frames arrive at an offered rate into per-core RX rings, worker
    cores truncate them and serialize batches of 128 frames to a pcap
    file with [writev], and the page cache absorbs the writes until
    writeback throttling sets in.  Loss occurs when the RX rings
    overflow — either because the cores cannot keep up or because the
    writer is being throttled by the kernel.

    This is the model behind Tables 1 and 2 and the tcpdump/DPDK
    capture-bound experiments in §8.1. *)

type config = {
  profile : Host_profile.t;
  cores : int;  (** worker cores polling RX rings *)
  truncation : int;  (** bytes stored per frame *)
  dirty_background_ratio : float;  (** vm.dirty_background_ratio, percent *)
  dirty_ratio : float;  (** vm.dirty_ratio, percent *)
  burstiness : float;
      (** std-dev of the per-step load multiplier (0 = perfectly smooth
          arrivals); real traffic generators show a few percent *)
  baseline_loss : float;
      (** constant drop floor from NIC/descriptor noise, as a fraction
          of offered frames *)
}

val default_config : config
(** 60:80 thresholds, 200 B truncation, 5 cores, mild burstiness. *)

type result = {
  offered_frames : float;
  captured_frames : float;
  dropped_frames : float;
  loss_percent : float;
  bytes_written : float;
  peak_cache_used_percent : float;
  throttled_seconds : float;  (** time spent with the writer throttled *)
  writev_latency : Netcore.Histogram.Log2.t;
      (** bpftrace-style latency histogram of writev calls, nanoseconds *)
}

val run : config -> offered_rate:float -> frame_size:int -> duration:float -> result
(** Simulate a capture of [duration] seconds of traffic offered at
    [offered_rate] bits/s of fixed-size frames (the DPDK-pktgen setup of
    the paper's experiments).  Seeded, so a run repeats exactly. *)

val capacity_rate : config -> frame_size:int -> float
(** Offered bit rate at which the configured cores saturate (ignoring
    the storage bottleneck). *)

val host_path : Obs.Ledger.host_path
(** This path's identity ([Dpdk]) in the loss-attribution ledger. *)
