(** Per-site workload profiles and the testbed's seasonal activity.

    The paper finds that FABRIC sites have diverse but persistent
    traffic characteristics (B1): some sites mostly run simple
    throughput experiments, others carry a wide variety of application
    protocols; jumbo frames dominate overall (B5); IPv4 dominates with
    under 2% IPv6 (B6); and activity ramps up before conference
    deadlines, peaking the week before SC'24 (Fig. 6).

    A {!profile} captures one site's persistent character; it is derived
    deterministically from the site's index and a seed, so the same site
    keeps the same character across every profiling occasion — which is
    exactly the persistence the paper observes. *)

type site_class =
  | Bulk_throughput  (** iperf-style tests: few protocols, jumbo data frames *)
  | App_rich  (** many application services, varied frame sizes *)
  | Hpc_storage  (** storage/data-movement services, jumbo-heavy *)
  | Light  (** sparse activity, few protocols *)
  | Mixed

type profile = {
  site_name : string;
  site_index : int;
  site_class : site_class;
  palette : Dissect.Services.service list;
      (** application services in use at this site *)
  base_flow_arrival : float;  (** flow arrivals/s at activity 1.0 *)
  flow_duration : Netcore.Dist.t;  (** seconds *)
  flow_byte_rate : Netcore.Dist.t;  (** bytes/s of the forward direction *)
  data_frame_size : Netcore.Dist.t;  (** forward-direction wire sizes *)
  ack_fraction : float;  (** reverse-stream rate as a fraction of forward *)
  ipv6_fraction : float;
  pseudowire_fraction : float;  (** tunnels adding PW + inner Ethernet *)
  vxlan_fraction : float;  (** overlay experiments adding VXLAN *)
  mpls_labels : int;  (** MPLS depth the provider underlay adds (1-2) *)
  cross_site_fraction : float;  (** flows leaving via an uplink *)
  elephant_prob : float;
      (** probability a flow is a line-rate elephant (100% utilized
          ports, Fig. 6 spikes) *)
}

val profile_for_site : seed:int -> Testbed.Info_model.site -> profile
(** Deterministic profile for a site. *)

val activity : seed:int -> float -> float
(** Global seasonal multiplier at an absolute time: baseline activity
    with ramps toward the spring deadline season and the SC'24 week
    (weeks 45-46), plus day-scale noise.  Roughly in [0.1, 3.5]. *)

val site_activity : profile -> seed:int -> float -> float
(** Per-site activity: the global multiplier scaled by site character
    and site-specific jitter. *)

val expected_site_rate : profile -> seed:int -> float -> float
(** Expected aggregate byte rate (bytes/s, Tx summed over the site's
    switch ports) offered by this site's experiments at a time.  Used by
    the analytic year-scale utilization series (Fig. 6). *)

val class_scale : site_class -> float
(** Relative traffic intensity of a site class (used to weight which
    sites attract multi-site slices). *)
