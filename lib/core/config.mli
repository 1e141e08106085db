(** Patchwork configuration (requirement R5: tunable fidelity).

    A profile's raw data consists of captures from a series of {e runs},
    each run being a series of {e samples}; after a run the instance
    may {e cycle} the mirrored port.  The user sets each knob: sample
    duration and spacing, samples per run, packet truncation, capture
    method, filtering and pre-processing. *)

type capture_method =
  | Tcpdump  (** default: mature, modest requirements (§8.1.2) *)
  | Dpdk of { cores : int }  (** kernel-bypass custom application *)
  | Fpga_dpdk of { cores : int; sample_1_in : int }
      (** FPGA pre-processing, then DPDK serialization: the offload
          forwards one frame in [sample_1_in] (1 = every frame), cut at
          [truncation] like every capture's *)

type port_selection =
  | Busiest_bias of int
      (** the paper's default: during every [n-1] of [n] cycles pick a
          random non-idle port; otherwise the busiest not sampled in the
          last [n] cycles *)
  | Fixed_ports of int list  (** no cycling *)
  | Uplinks_only
  | All_ports_round_robin  (** including idle ports *)

type mode =
  | All_experiments  (** testbed-wide; needs special permission *)
  | Single_experiment of (string * int list) list
      (** (site, ports) of the user's own slice *)

type t = {
  mode : mode;
  sample_duration : float;  (** seconds of traffic per sample *)
  sample_interval : float;  (** spacing between sample starts *)
  samples_per_run : int;
      (** samples an instance takes on one mirrored port before it
          cycles *)
  truncation : int;
      (** bytes kept per frame: the one snap length, whichever of
          tcpdump, the DPDK writer or the FPGA offload cuts *)
  capture_method : capture_method;
  port_selection : port_selection;
  filter : Packet.Filter.t;
  anonymize : bool;  (** prefix-preserving address anonymization *)
  emit_pcap : bool;
      (** build real pcap bytes (off for long profiles), each record a
          stamp of its flow class's template.  Profiles then digest
          those bytes, folded frame by frame, instead of the in-line
          acaps.  Either way each record comes off the dissector's tape
          (the in-line ones from the class template's header bytes), so
          the two are the same records but for their stamps
          (microsecond times, captured lengths, truncation), see
          [Analysis.Digest.sample_acaps]. *)
  max_frames_per_sample : int;
      (** materialization budget; heavier samples are thinned uniformly
          (recorded, so analyses can re-weight) *)
  instance_crash_prob : float;
      (** per-sample probability that an instance dies unexpectedly
          (environmental failures and the early-deployment bug behind
          Fig. 10's "Incomplete" runs) *)
  host_profile : Hostmodel.Host_profile.t;
  pool_size : int;
      (** degrees of parallelism for the offline pipeline (gathering and
          analysis fan-out); 1 disables domain spawning.  Defaults to
          [Domain.recommended_domain_count () - 1].  Results are
          identical at any pool size. *)
}

val default : t
(** The paper's weekly-profile settings: all-experiment mode, 20 s
    samples every 5 minutes, 200-byte truncation, tcpdump, busiest-bias
    1-in-4 cycling. *)

val validate : t -> (unit, string) result
