(** Calibration of the capture host.

    The paper's storage experiments ran on a FABRIC node with a single
    NUMA domain, 16 cores, 128 GB of RAM and a 100G NIC.  This record
    gathers every constant of the host model; {!default} is calibrated
    so the DPDK capture tables (Tables 1-2) and the page-cache latency
    study (Fig. 14) reproduce the paper's shape. *)

type t = {
  cores : int;  (** physical cores available to capture *)
  ram_bytes : float;
  free_cache_fraction : float;
      (** fraction of RAM available as page cache on an idle host *)
  storage_drain_rate : float;  (** bytes/s the disk sustains on writeback *)
  dpdk_fixed_cost : float;
      (** seconds of CPU per received frame, independent of size *)
  dpdk_byte_cost : float;  (** seconds of CPU per stored (truncated) byte *)
  core_contention : float;
      (** multi-core scaling penalty: n cores deliver
          [n / (1 + core_contention * (n-1))] times one core *)
  kernel_fixed_cost : float;
      (** per-frame cost of the kernel capture path (tcpdump) *)
  rx_queue_depth : int;  (** per-core RX descriptor ring slots *)
  tcpdump_buffer_bytes : float;  (** capture buffer (raised to 32 MB) *)
  writev_batch : int;  (** frames serialized per writev call *)
  writev_base_latency : float;  (** seconds, unloaded *)
  writev_byte_latency : float;  (** seconds per byte written *)
}

val default : t
(** The 16-core / 128 GB / 100G profile used throughout the paper. *)

val effective_cores : t -> int -> float
(** [effective_cores p n] applies the contention model. *)

val dpdk_capacity_pps : t -> cores:int -> truncation:int -> float
(** Sustainable packets/s of the DPDK path before queue growth. *)

val kernel_capacity_pps : t -> float
(** Sustainable packets/s of the tcpdump path (single threaded). *)

val free_cache_bytes : t -> float
