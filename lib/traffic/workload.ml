open Netcore

type site_class = Bulk_throughput | App_rich | Hpc_storage | Light | Mixed

type profile = {
  site_name : string;
  site_index : int;
  site_class : site_class;
  palette : Dissect.Services.service list;
  base_flow_arrival : float;
  flow_duration : Dist.t;
  flow_byte_rate : Dist.t;
  data_frame_size : Dist.t;
  ack_fraction : float;
  ipv6_fraction : float;
  pseudowire_fraction : float;
  vxlan_fraction : float;
  mpls_labels : int;
  cross_site_fraction : float;
  elephant_prob : float;
}

(* Mean flow lifetime: a mix of short tests, medium transfers and a few
   long-running experiments. *)
let duration_dist =
  Dist.Mixture
    [ (0.70, Dist.Exponential 60.0); (0.25, Dist.Exponential 600.0);
      (0.05, Dist.Exponential 7200.0) ]

let mean_duration = (0.70 *. 60.0) +. (0.25 *. 600.0) +. (0.05 *. 7200.0)

(* Typical (non-elephant) per-flow rate: log-normal around 1 MB/s. *)
let mouse_rate_dist = Dist.Lognormal (log 1e6, 1.5)
let mean_mouse_rate = 1e6 *. exp (1.5 *. 1.5 /. 2.0)

(* Elephants: bulk transfers pushing toward a 100G port's capacity. *)
let elephant_rate_dist = Dist.Uniform (5e9, 12.5e9)
let mean_elephant_rate = 8.75e9

let rate_dist ~elephant_prob =
  Dist.Mixture
    [ (1.0 -. elephant_prob, mouse_rate_dist); (elephant_prob, elephant_rate_dist) ]

let mean_flow_rate ~elephant_prob =
  ((1.0 -. elephant_prob) *. mean_mouse_rate) +. (elephant_prob *. mean_elephant_rate)

(* Forward-direction frame-size mixes per class.  1948 is the dominant
   jumbo size on FABRIC (the 1519-2047 bin that holds 74.7% of frames);
   66 is a payload-free ACK; 9000 the full jumbo MTU. *)
let frame_size_dist = function
  | Bulk_throughput ->
    Dist.Empirical [| (0.88, 1948.0); (0.05, 66.0); (0.04, 200.0); (0.03, 9000.0) |]
  | Hpc_storage ->
    Dist.Empirical [| (0.52, 1948.0); (0.28, 9000.0); (0.12, 66.0); (0.08, 512.0) |]
  | App_rich ->
    Dist.Empirical
      [| (0.38, 1948.0); (0.24, 66.0); (0.18, 200.0); (0.12, 512.0); (0.08, 1024.0) |]
  | Light -> Dist.Empirical [| (0.45, 66.0); (0.30, 200.0); (0.25, 1514.0) |]
  | Mixed ->
    Dist.Empirical
      [| (0.62, 1948.0); (0.14, 66.0); (0.10, 256.0); (0.09, 512.0); (0.05, 9000.0) |]

let class_of_index rng =
  Rng.weighted rng
    [ (0.30, Bulk_throughput); (0.20, App_rich); (0.15, Hpc_storage);
      (0.15, Light); (0.20, Mixed) ]

let palette_size rng = function
  | Bulk_throughput -> Rng.int_in rng 2 5
  | App_rich -> Rng.int_in rng 15 40
  | Hpc_storage -> Rng.int_in rng 5 10
  | Light -> Rng.int_in rng 1 4
  | Mixed -> Rng.int_in rng 8 15

(* Services every class leans on; the rest of the palette is drawn with
   Zipf weights so common services recur across sites. *)
let class_staples = function
  | Bulk_throughput -> [ "iperf3"; "ssh" ]
  | App_rich -> [ "tls"; "http"; "dns"; "ssh" ]
  | Hpc_storage -> [ "nfs"; "ceph"; "rsync"; "ssh" ]
  | Light -> [ "ssh" ]
  | Mixed -> [ "iperf3"; "tls"; "ssh" ]

let make_palette rng site_class =
  let staples = List.filter_map Dissect.Services.by_name (class_staples site_class) in
  let want = palette_size rng site_class in
  let catalog = Dissect.Services.catalog in
  let zipf = Dist.Zipf.create ~n:(Array.length catalog) ~s:1.05 in
  let rec fill acc n_left guard =
    if n_left <= 0 || guard > 500 then acc
    else begin
      let rank = Dist.Zipf.sample zipf rng in
      let svc = catalog.(rank - 1) in
      if List.memq svc acc then fill acc n_left (guard + 1)
      else fill (svc :: acc) (n_left - 1) (guard + 1)
    end
  in
  fill staples (want - List.length staples) 0

let arrival_rate = function
  | Bulk_throughput -> 0.040
  | App_rich -> 0.080
  | Hpc_storage -> 0.040
  | Light -> 0.005
  | Mixed -> 0.053

let elephant_prob_of = function
  | Bulk_throughput -> 0.030
  | Hpc_storage -> 0.020
  | Mixed -> 0.010
  | App_rich -> 0.003
  | Light -> 0.0005

let class_scale = function
  | Bulk_throughput -> 1.3
  | Hpc_storage -> 1.5
  | App_rich -> 0.8
  | Light -> 0.15
  | Mixed -> 1.0

let profile_for_site ~seed (site : Testbed.Info_model.site) =
  (* One private stream per (seed, site): character persists across
     occasions because it never depends on when we look. *)
  let rng = Rng.create ((seed * 65537) + (site.Testbed.Info_model.index * 257) + 11) in
  let site_class =
    if site.Testbed.Info_model.teaching_only then Light else class_of_index rng
  in
  let elephant_prob = elephant_prob_of site_class in
  {
    site_name = site.Testbed.Info_model.name;
    site_index = site.Testbed.Info_model.index;
    site_class;
    palette = make_palette rng site_class;
    base_flow_arrival = arrival_rate site_class *. (0.7 +. (0.6 *. Rng.float rng));
    flow_duration = duration_dist;
    flow_byte_rate = rate_dist ~elephant_prob;
    data_frame_size = frame_size_dist site_class;
    ack_fraction = 0.004 +. (0.003 *. Rng.float rng);
    ipv6_fraction =
      (if Rng.bernoulli rng 0.25 then 0.05 +. (0.08 *. Rng.float rng) else 0.01);
    pseudowire_fraction = 0.15 +. (0.25 *. Rng.float rng);
    vxlan_fraction = (if site_class = App_rich then 0.08 else 0.02);
    mpls_labels = (if Rng.bernoulli rng 0.5 then 2 else 1);
    cross_site_fraction = 0.20 +. (0.30 *. Rng.float rng);
    elephant_prob;
  }

(* Deterministic day-scale noise shared by the analytic and event-driven
   paths. *)
let day_noise seed day =
  let rng = Rng.create ((seed * 31) + (day * 2654435761) + 5) in
  0.55 +. (0.9 *. Rng.float rng)

let gaussian_bump ~center ~sigma ~amplitude week =
  let d = (week -. center) /. sigma in
  amplitude *. exp (-0.5 *. d *. d)

let activity ~seed t =
  let week = t /. Timebase.week in
  let day = Timebase.day_of t in
  let base = 0.35 in
  let spring = gaussian_bump ~center:14.0 ~sigma:4.0 ~amplitude:1.1 week in
  let sc24 = gaussian_bump ~center:45.5 ~sigma:3.0 ~amplitude:2.7 week in
  Float.max 0.05 ((base +. spring +. sc24) *. day_noise seed day)

let site_activity profile ~seed t =
  let site_jitter =
    let rng =
      Rng.create ((seed * 131) + (profile.site_index * 17) + Timebase.week_of t)
    in
    0.7 +. (0.6 *. Rng.float rng)
  in
  activity ~seed t *. class_scale profile.site_class *. site_jitter

let expected_site_rate profile ~seed t =
  let concurrent =
    profile.base_flow_arrival *. site_activity profile ~seed t *. mean_duration
  in
  let per_flow = mean_flow_rate ~elephant_prob:profile.elephant_prob in
  (* Each flow's bytes are transmitted out of one downlink, and
     cross-site flows additionally out of an uplink. *)
  concurrent *. per_flow *. (1.0 +. profile.cross_site_fraction)
    *. (1.0 +. profile.ack_fraction)
