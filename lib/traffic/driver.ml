open Netcore
module Fablib = Testbed.Fablib
module Switch = Testbed.Switch
module Info_model = Testbed.Info_model

type site_ports = {
  (* Downlinks in per-site popularity order: researchers pile onto the
     same few well-equipped servers, so port selection is Zipfian. *)
  ranked_downlinks : int array;
  downlink_zipf : Dist.Zipf.sampler;
  (* Fabric port lists in Fablib order, materialized once: flow
     preparation runs per arrival, so per-call Array.of_list /
     harmonic-sum work would be O(flows × ports). *)
  downlinks : int array;
  uplinks : int array;
}

(* Service palette of a profile with its Zipf sampler precomputed
   (Zipf.create is an O(n) harmonic sum — far too hot to rebuild per
   spawned flow). *)
type site_services = {
  palette : Dissect.Services.service array;
  palette_zipf : Dist.Zipf.sampler;
}

(* Cross-site destination table, precomputed per source site: cumulative
   class-scale weights over every *other* site, sampled by binary
   search.  Rebuilding the weighted candidate list per cross-site flow
   was O(sites) per arrival. *)
type remote_table = { rt_cum : float array; rt_names : string array }

(* Per-site generator: every random draw a site's synthesis needs comes
   from [sg_rng], seeded independently of the other sites, so the sites
   can presample on a pool in any order — or concurrently — and still
   produce bit-identical output. *)
type site_gen = {
  sg_index : int;  (* position in the model's site array *)
  sg_profile : Workload.profile;
  sg_rng : Rng.t;
  sg_ports : site_ports;
  sg_services : site_services option;
  sg_remotes : remote_table option;  (* None when this is the only site *)
  mutable sg_pending : float;  (* absolute time of the next candidate arrival *)
  mutable sg_stripe : int;  (* flow ids are sg_index + sg_stripe * n_sites *)
}

(* Everything one arrival will do to the shared fabric, drawn entirely
   from the owning site's generator at presample time.  Executing it
   (attach/detach, spec-table insertion) happens later, inside the
   single-threaded engine. *)
type prepared = {
  pr_time : float;
  pr_duration : float;
  pr_fwd_id : int;
  pr_fwd_spec : Flow_model.spec;
  pr_plan : (string * int * Switch.dir) list;
  pr_rev : (int * Flow_model.spec) option;  (* reverse plan mirrors pr_plan *)
}

type t = {
  fabric : Fablib.t;
  seed : int;
  pool : Parallel.Pool.t;
  slab : float;  (* presample horizon, simulated seconds *)
  gens : site_gen array;
  by_name : (string, site_gen) Hashtbl.t;
  specs : (int, Flow_model.spec) Hashtbl.t;
  n_sites : int;
  mutable until : float;
}

let obs_prepared =
  Obs.Registry.counter Obs.Registry.default "traffic_prepared_flows_total"
    ~help:"Flow arrivals presampled by the traffic driver"

let obs_presample_batches =
  Obs.Registry.counter Obs.Registry.default "traffic_presample_batches_total"
    ~help:"Per-site presample batches fanned out on the pool"

let obs_events_batched =
  Obs.Registry.counter Obs.Registry.default "engine_events_batched_total"
    ~help:"Arrival events delivered to the engine as pre-sorted batches"

(* Independent per-site stream: mix the site index into the seed with
   two odd constants so neighbouring seeds / indices do not collide.
   SplitMix64's creation scrambler does the rest. *)
let site_seed seed index =
  (seed * 2654435761) lxor ((index + 1) * 0x9E3779B97F4A7C1)

let create ?(pool = Parallel.Pool.sequential) ?(slab = 900.0) fabric ~seed =
  if slab <= 0.0 then invalid_arg "Driver.create: slab must be positive";
  let sites = (Fablib.model fabric).Info_model.sites in
  let n = Array.length sites in
  let profiles =
    Array.map (fun site -> Workload.profile_for_site ~seed site) sites
  in
  let gens =
    Array.mapi
      (fun i (site : Info_model.site) ->
        let name = site.Info_model.name in
        let rng = Rng.create (site_seed seed i) in
        let downlinks = Array.of_list (Fablib.downlink_ports fabric ~site:name) in
        let ranked = Array.copy downlinks in
        Rng.shuffle rng ranked;
        let ports =
          {
            ranked_downlinks = ranked;
            downlink_zipf = Dist.Zipf.create ~n:(Array.length ranked) ~s:1.2;
            downlinks;
            uplinks = Array.of_list (Fablib.uplink_ports fabric ~site:name);
          }
        in
        let services =
          let palette = Array.of_list profiles.(i).Workload.palette in
          if Array.length palette = 0 then None
          else
            Some
              {
                palette;
                palette_zipf = Dist.Zipf.create ~n:(Array.length palette) ~s:0.9;
              }
        in
        let remotes =
          if n <= 1 then None
          else begin
            (* Multi-site slices overwhelmingly anchor on well-equipped
               sites, so quiet sites receive little remote traffic. *)
            let cum = Array.make (n - 1) 0.0 in
            let names = Array.make (n - 1) "" in
            let acc = ref 0.0 in
            let k = ref 0 in
            Array.iteri
              (fun j (s : Info_model.site) ->
                if j <> i then begin
                  acc :=
                    !acc +. Workload.class_scale profiles.(j).Workload.site_class;
                  cum.(!k) <- !acc;
                  names.(!k) <- s.Info_model.name;
                  incr k
                end)
              sites;
            Some { rt_cum = cum; rt_names = names }
          end
        in
        {
          sg_index = i;
          sg_profile = profiles.(i);
          sg_rng = rng;
          sg_ports = ports;
          sg_services = services;
          sg_remotes = remotes;
          sg_pending = infinity;
          sg_stripe = 0;
        })
      sites
  in
  let by_name = Hashtbl.create (max 1 n) in
  Array.iter
    (fun g -> Hashtbl.add by_name g.sg_profile.Workload.site_name g)
    gens;
  {
    fabric;
    seed;
    pool;
    slab;
    gens;
    by_name;
    specs = Hashtbl.create 1024;
    n_sites = n;
    until = 0.0;
  }

let resolver t flow = Hashtbl.find_opt t.specs flow
let live_flow_count t = Hashtbl.length t.specs

(* Striped flow-id allocation: site i's k-th flow is i + k * n_sites, so
   ids are globally unique without any shared counter. *)
let fresh_flow_id t gen =
  let id = gen.sg_index + (gen.sg_stripe * t.n_sites) in
  gen.sg_stripe <- gen.sg_stripe + 1;
  id

(* Frame sizes of a pure-ACK reverse stream. *)
let ack_frame_sizes = Dist.Empirical [| (0.85, 66.0); (0.15, 90.0) |]

(* Elephants push jumbo frames regardless of the site's usual mix; a
   few percent of control/retransmission chatter rides along. *)
let elephant_frame_sizes =
  Dist.Empirical [| (0.87, 1948.0); (0.045, 200.0); (0.085, 9000.0) |]

let pick_service rng gen =
  match gen.sg_services with
  | None -> Option.get (Dissect.Services.by_name "ssh")
  | Some s -> s.palette.(Dist.Zipf.sample s.palette_zipf rng - 1)

(* First index of [cum] whose cumulative weight exceeds [u]. *)
let cum_search cum u =
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  !lo

let pick_other_site rng gen =
  match gen.sg_remotes with
  | None -> invalid_arg "Driver.pick_other_site: single-site model"
  | Some rt ->
    let total = rt.rt_cum.(Array.length rt.rt_cum - 1) in
    rt.rt_names.(cum_search rt.rt_cum (Rng.float rng *. total))

(* Port picks take the drawing rng explicitly: a cross-site flow draws
   the *remote* site's ports from the *source* site's stream, so no
   generator is ever touched by two sites' presampling at once. *)
let random_downlink rng (sp : site_ports) =
  let rank = Dist.Zipf.sample sp.downlink_zipf rng in
  sp.ranked_downlinks.(rank - 1)

let random_uplink rng (sp : site_ports) = Rng.choice rng sp.uplinks

let ports_of t ~site =
  match Hashtbl.find_opt t.by_name site with
  | Some g -> g.sg_ports
  | None -> invalid_arg ("Driver: unknown site " ^ site)

(* A "plan" is the list of (site, port, dir) channels a stream occupies. *)
let attach t plan ~flow ~byte_rate ~frame_rate =
  List.iter
    (fun (site, port, dir) ->
      Switch.attach_flow (Fablib.switch t.fabric ~site) ~port ~dir ~byte_rate
        ~frame_rate ~flow)
    plan

let detach t ~flow sites =
  List.iter (fun site -> Switch.detach_flow (Fablib.switch t.fabric ~site) ~flow) sites;
  Hashtbl.remove t.specs flow

(* Channels crossed by the forward direction of a flow from [src] port
   at [site] toward either another server of the same site or a remote
   site.  The reverse stream uses the mirrored plan. *)
let plan_forward t rng ~site ~src_port = function
  | `Intra dst_port -> [ (site, src_port, Switch.Rx); (site, dst_port, Switch.Tx) ]
  | `Cross (remote, remote_dst) ->
    [
      (site, src_port, Switch.Rx);
      (site, random_uplink rng (ports_of t ~site), Switch.Tx);
      (remote, random_uplink rng (ports_of t ~site:remote), Switch.Rx);
      (remote, remote_dst, Switch.Tx);
    ]

let plan_reverse plan =
  List.map
    (fun (site, port, dir) ->
      (site, port, match dir with Switch.Rx -> Switch.Tx | Switch.Tx -> Switch.Rx))
    plan

let sites_of_plan plan =
  List.sort_uniq compare (List.map (fun (site, _, _) -> site) plan)

(* Draw one arrival's full character from the site's own stream.  Pure
   with respect to every other site's state and to the fabric switches,
   so presampling fans out across the pool freely. *)
let prepare_flow t gen ~now =
  let rng = gen.sg_rng in
  let p = gen.sg_profile in
  let site = p.Workload.site_name in
  (* Character of this flow. *)
  let byte_rate = Dist.sample p.Workload.flow_byte_rate rng in
  let is_elephant = byte_rate >= 2e9 in
  let is_swarm =
    (not is_elephant)
    && p.Workload.site_class = Workload.App_rich
    && Rng.bernoulli rng 0.12
  in
  let subflows =
    if is_swarm then Rng.int_in rng 200 5000
    else if is_elephant then 1
    else
      (* Many experiments open parallel connections (iperf -P, storage
         clients, scan tools). *)
      Rng.weighted rng
        [ (0.60, 1); (0.25, 1 + Rng.int rng 16); (0.15, 16 + Rng.int rng 112) ]
  in
  let byte_rate = if is_swarm then byte_rate *. 5.0 else byte_rate in
  let duration = Float.max 1.0 (Dist.sample p.Workload.flow_duration rng) in
  let service =
    (* Line-rate bulk transfers are overwhelmingly TCP throughput tests. *)
    if is_elephant && Rng.bernoulli rng 0.85 then
      Option.get (Dissect.Services.by_name "iperf3")
    else pick_service rng gen
  in
  let params =
    {
      Stack_builder.vlan_id = 100 + Rng.int rng 3900;
      mpls_labels =
        List.init p.Workload.mpls_labels (fun _ -> 16 + Rng.int rng 1_000_000);
      use_pseudowire = Rng.bernoulli rng p.Workload.pseudowire_fraction;
      use_vxlan = (not is_elephant) && Rng.bernoulli rng p.Workload.vxlan_fraction;
      (* Bulk line-rate transfers are mostly IPv4; a small share of
         bulk tests exercises IPv6 paths. *)
      use_ipv6 =
        (if is_elephant then Rng.bernoulli rng 0.04
         else Rng.bernoulli rng p.Workload.ipv6_fraction);
      service;
    }
  in
  let template = Stack_builder.forward rng params in
  let frame_size =
    if is_elephant then elephant_frame_sizes else p.Workload.data_frame_size
  in
  let avg_frame_size = Option.value ~default:800.0 (Dist.mean frame_size) in
  (* Placement. *)
  let src_port = random_downlink rng gen.sg_ports in
  let destination =
    if gen.sg_remotes <> None && Rng.bernoulli rng p.Workload.cross_site_fraction
    then begin
      let remote = pick_other_site rng gen in
      `Cross (remote, random_downlink rng (ports_of t ~site:remote))
    end
    else begin
      (* Rejection-sample the destination downlink instead of
         materializing a fresh filtered array per arrival: src_port is
         one element of [downlinks], so with two or more downlinks each
         redraw misses it with probability (len-1)/len. *)
      let downlinks = gen.sg_ports.downlinks in
      let len = Array.length downlinks in
      if len <= 1 then `Intra src_port (* single-downlink site: loop locally *)
      else begin
        let rec pick () =
          let port = downlinks.(Rng.int rng len) in
          if port = src_port then pick () else port
        in
        `Intra (pick ())
      end
    end
  in
  let fwd_plan = plan_forward t rng ~site ~src_port destination in
  let fwd_id = fresh_flow_id t gen in
  let fwd_spec =
    Flow_model.make ~flow_id:fwd_id ~template ~frame_size ~avg_frame_size
      ~byte_rate ~start_time:now ~duration ~subflows ()
  in
  (* Reverse ACK stream for TCP services. *)
  let rev =
    if service.Dissect.Services.l4 = Dissect.Services.Tcp then begin
      let rev_id = fresh_flow_id t gen in
      let rev_template = Stack_builder.reverse template in
      let rev_rate = byte_rate *. p.Workload.ack_fraction in
      let rev_spec =
        Flow_model.make ~flow_id:rev_id ~template:rev_template
          ~frame_size:ack_frame_sizes ~avg_frame_size:70.0 ~byte_rate:rev_rate
          ~start_time:now ~duration ~subflows ()
      in
      Some (rev_id, rev_spec)
    end
    else None
  in
  {
    pr_time = now;
    pr_duration = duration;
    pr_fwd_id = fwd_id;
    pr_fwd_spec = fwd_spec;
    pr_plan = fwd_plan;
    pr_rev = rev;
  }

(* Execute a prepared arrival.  Runs inside the (single-threaded) engine
   at [pr_time]: the only shared-state effects of a flow's life are
   here and in the detach callback. *)
let execute t prep =
  Hashtbl.replace t.specs prep.pr_fwd_id prep.pr_fwd_spec;
  attach t prep.pr_plan ~flow:prep.pr_fwd_id
    ~byte_rate:prep.pr_fwd_spec.Flow_model.byte_rate
    ~frame_rate:(Flow_model.frame_rate prep.pr_fwd_spec);
  let rev_ids =
    match prep.pr_rev with
    | None -> []
    | Some (rev_id, rev_spec) ->
      Hashtbl.replace t.specs rev_id rev_spec;
      attach t (plan_reverse prep.pr_plan) ~flow:rev_id
        ~byte_rate:rev_spec.Flow_model.byte_rate
        ~frame_rate:(Flow_model.frame_rate rev_spec);
      [ rev_id ]
  in
  let sites = sites_of_plan prep.pr_plan in
  Simcore.Engine.schedule (Fablib.engine t.fabric) ~delay:prep.pr_duration
    (fun _ ->
      detach t ~flow:prep.pr_fwd_id sites;
      List.iter (fun id -> detach t ~flow:id sites) rev_ids)

(* Thinned Poisson arrivals per site: draw at a fixed ceiling intensity
   and accept proportionally to the activity at the (known) arrival
   time.  [Workload.site_activity] is a pure function of time, so the
   accept/reject decision moves from fire time to presample time without
   changing the process. *)
let max_site_activity = 8.0

(* Candidate arrivals of [gen] strictly before [limit], in time order.
   The exponential chain continues across slab boundaries ([sg_pending]
   carries the already-drawn next arrival), so the output is identical
   whatever the slab size, pool size, or site interleaving. *)
let presample_site t gen ~limit =
  let p = gen.sg_profile in
  let ceiling = p.Workload.base_flow_arrival *. max_site_activity in
  let mean = 1.0 /. ceiling in
  let acc = ref [] in
  while gen.sg_pending < limit do
    let ta = gen.sg_pending in
    let act = Workload.site_activity p ~seed:t.seed ta in
    if Rng.bernoulli gen.sg_rng (Float.min 1.0 (act /. max_site_activity)) then
      acc := prepare_flow t gen ~now:ta :: !acc;
    gen.sg_pending <- ta +. Rng.exponential gen.sg_rng ~mean
  done;
  List.rev !acc

(* Presample one slab for every site — fanned out on the pool, one task
   per site; each task touches only its own generator, and remote port
   tables are immutable, so any interleaving yields the same batches.
   [Pool.map_array] returns them in site order, and scheduling walks
   sites in that fixed order, so the engine's tie-break (insertion
   order) is pool-size-independent too. *)
let rec refill t ~from =
  let engine = Fablib.engine t.fabric in
  let limit = Float.min (from +. t.slab) t.until in
  let batches =
    Parallel.Pool.map_array t.pool (fun gen -> presample_site t gen ~limit) t.gens
  in
  Obs.Registry.incr obs_presample_batches;
  let nowc = Simcore.Engine.now engine in
  Array.iter
    (fun preps ->
      (* One pre-sorted block per site-slab: one array of times and one
         shared callback indexing into the prepared array, instead of a
         heap push, an event record and a closure per arrival.  Times go
         through the same [clock +. (time -. clock)] round-trip
         [schedule_at] applies, so each arrival fires at the instant a
         per-event [schedule_at] would give it, to the bit. *)
      match preps with
      | [] -> ()
      | preps ->
        let arr = Array.of_list preps in
        let n = Array.length arr in
        let times = Array.map (fun p -> nowc +. (p.pr_time -. nowc)) arr in
        Obs.Registry.inc obs_prepared (float_of_int n);
        Obs.Registry.inc obs_events_batched (float_of_int n);
        Simcore.Engine.schedule_batch engine ~times (fun _ i ->
            execute t arr.(i)))
    batches;
  if limit < t.until then
    Simcore.Engine.schedule_at engine ~time:limit (fun _ -> refill t ~from:limit)

let start t ~until =
  let engine = Fablib.engine t.fabric in
  let now = Simcore.Engine.now engine in
  t.until <- until;
  Array.iter
    (fun gen ->
      let ceiling =
        gen.sg_profile.Workload.base_flow_arrival *. max_site_activity
      in
      gen.sg_pending <- now +. Rng.exponential gen.sg_rng ~mean:(1.0 /. ceiling))
    t.gens;
  if until > now then refill t ~from:now
