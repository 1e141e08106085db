module Switch = Testbed.Switch
module Fablib = Testbed.Fablib
module Flow_model = Traffic.Flow_model

(* The whole-sample loss split the attribution ledger records: every
   offered frame/byte lands in exactly one bucket — stored, or one of
   the loss causes — so `offered = stored + Σ attributed` holds by
   construction (up to float association, well inside the ledger's
   1e-6 relative tolerance). *)
type breakdown = {
  b_offered_frames : float;
  b_offered_bytes : float;  (** wire bytes, no pcap record headers *)
  b_switch_dropped : float;
  b_host_dropped : float;
  b_captured_frames : float;
  b_host_keep : float;  (** host keep rate *)
  b_stored_wire_bytes : float;  (** wire bytes of stored frames *)
  b_causes : (Obs.Ledger.cause * float * float) list;
}

type stats = {
  loss : breakdown;
  stored_bytes : float;
  flow_estimate : float;
  congestion_detected : bool;
}

type sample = {
  sample_site : string;
  sample_port : int;
  sample_start : float;
  sample_duration : float;
  acaps : Dissect.Acap.record list;
  materialized_fraction : float;
  pcap : bytes option;
  stats : stats;
}

type materialized = {
  records : Dissect.Acap.record list;
  pcap : bytes option;
  classes : int;
}

(* One flow class: every draw of one (spec, subflow).  [instantiate]
   varies only the IPv4 ident and TCP seq between its frames, which no
   filter primitive and no acap field reads, so one frame, drawn at
   index 0, decides the filter (with each draw's own wire length), one
   template, stamped per draw, writes every frame's pcap bytes, and one
   abstract record, the digest of the template's header bytes, stamped
   per draw, stands for every frame. *)
type flow_class = {
  frame : Packet.Frame.t;  (** before anonymization, for the filter *)
  template : Packet.Codec.template;  (** after anonymization *)
  record : Dissect.Acap.record;
}

(* Split the draws at time [at] off the head of a run: they come back
   reversed, onto [group], with the rest of the run. *)
let rec split_group ts at group = function
  | d :: rest when ts d = at -> split_group ts at (d :: group) rest
  | rest -> (group, rest)

(* Merge the specs' runs of kept draws, each newest first, into one
   list in time order; [ts] reads a draw's time.  The result is the
   stable sort of every draw consed in generation order: equal times
   come latest-generated first, so the higher spec first and, within a
   spec, the higher draw first.  The list is built from its end: each
   step takes the latest time left at the head of a run (on a tie, the
   lowest spec, which lands last) and prepends that run's whole group at
   this time, in the run's own order.  One cons per draw, and [k]
   compares for [k] specs. *)
let merge_runs ts runs =
  let runs = Array.of_list runs in
  let k = Array.length runs in
  let rec go acc =
    let best = ref (-1) and best_ts = ref 0.0 in
    for i = 0 to k - 1 do
      match runs.(i) with
      | d :: _ when !best < 0 || ts d > !best_ts ->
        best := i;
        best_ts := ts d
      | _ -> ()
    done;
    if !best < 0 then acc
    else
      match runs.(!best) with
      | [] -> assert false
      | d :: (d' :: _ as rest) when ts d' = !best_ts ->
        let group, rest = split_group ts !best_ts [ d ] rest in
        runs.(!best) <- rest;
        go (List.rev_append group acc)
      | d :: rest ->
        runs.(!best) <- rest;
        go (d :: acc)
  in
  go []

let record_ts (r : Dissect.Acap.record) = r.Dissect.Acap.ts

(* A kept draw of a capture that writes pcap: its record, and what
   stamps its pcap record once the draws are in time order. *)
type pcap_draw = {
  record : Dissect.Acap.record;
  template : Packet.Codec.template;
  index : int;
}

let materialize ~(config : Config.t) ~rng ~fraction ~start_time ~end_time specs =
  let filter = config.Config.filter in
  (* The offload's verdict depends only on how many frames the filter
     has passed it, so it reads no frame. *)
  let offload =
    match config.Config.capture_method with
    | Config.Fpga_dpdk { sample_1_in; _ } -> Hostmodel.Fpga_path.create ~sample_1_in
    | Config.Tcpdump | Config.Dpdk _ -> fun () -> true
  in
  let anonymize =
    if config.Config.anonymize then
      Hostmodel.Anonymize.frame (Hostmodel.Anonymize.create ~key:97)
    else Fun.id
  in
  let emit_pcap = config.Config.emit_pcap in
  (* Each class record is read off the dissector's tape, as the digest
     reads a stored frame: the walk over the class template's header
     bytes, whole, so the record is not truncated. *)
  let fields = Dissect.Acap.Fields.create () in
  let record_of template =
    let len = Packet.Codec.header_length template in
    Dissect.Acap.Fields.dissect fields (Packet.Codec.headers template) ~off:0 ~cap_len:len
      ~orig_len:len;
    Dissect.Acap.of_fields fields ~ts:0.0 ~orig_len:len
  in
  (* One run per spec, newest first, in reverse spec order: of records,
     or of pcap draws with [emit_pcap]. *)
  let runs = ref [] and pcap_runs = ref [] and classes = ref 0 in
  List.iter
    (fun spec ->
      let acaps = ref [] and draws = ref [] in
      (* Scale the spec's rate by the materialized fraction so the
         Poisson draw produces the thinned stream directly. *)
      let spec =
        { spec with Flow_model.byte_rate = spec.Flow_model.byte_rate *. fraction }
      in
      let table = Hashtbl.create 8 in
      let class_of ~wire_len ~subflow =
        match Hashtbl.find table subflow with
        | c -> c
        | exception Not_found ->
          let frame = Flow_model.draw_frame spec ~index:0 ~wire_len ~subflow in
          let template = Packet.Codec.template (anonymize frame) in
          let c = { frame; template; record = record_of template } in
          Hashtbl.add table subflow c;
          incr classes;
          c
      in
      Flow_model.iter_draws spec rng ~start_time ~end_time
        (fun ~index ~ts ~wire_len ~subflow ->
          let c = class_of ~wire_len ~subflow in
          if Packet.Filter.matches ~wire_len filter c.frame && offload ()
          then begin
            let record =
              Dissect.Acap.stamp c.record ~ts ~orig_len:wire_len ~cap_len:wire_len
            in
            if emit_pcap then draws := { record; template = c.template; index } :: !draws
            else acaps := record :: !acaps
          end);
      if emit_pcap then pcap_runs := !draws :: !pcap_runs
      else runs := !acaps :: !runs)
    specs;
  let records, pcap =
    if not emit_pcap then (merge_runs record_ts (List.rev !runs), None)
    else begin
      (* The pcap holds the records' frames in the records' order, each
         stamped from its class's template straight into a buffer
         allocated once, at the file's size. *)
      let draws = merge_runs (fun d -> record_ts d.record) (List.rev !pcap_runs) in
      let wire_len d = d.record.Dissect.Acap.orig_len in
      let w = Packet.Pcap.Writer.create ~snaplen:config.Config.truncation () in
      Packet.Pcap.Writer.reserve w
        (List.fold_left
           (fun n d -> n + Packet.Pcap.Writer.record_length w ~wire_len:(wire_len d))
           0 draws);
      List.iter
        (fun d ->
          Flow_model.stamp_draw w ~ts:(record_ts d.record) d.template ~index:d.index
            ~wire_len:(wire_len d))
        draws;
      (List.map (fun d -> d.record) draws, Some (Packet.Pcap.Writer.contents w))
    end
  in
  { records; pcap; classes = !classes }

(* Capture counters, registered at module init so the families exist
   (at zero) in every snapshot, the offline analyze path's included.
   Loss is not counted here: the ledger accounts for it, per site and
   cause, in its [ledger_*_total] counters. *)
let obs_captured =
  Obs.Registry.counter Obs.Registry.default "capture_frames_total"
    ~help:"Frames captured and stored"

let obs_stored_bytes =
  Obs.Registry.counter Obs.Registry.default "capture_stored_bytes_total"
    ~help:"Bytes written to capture storage"

let obs_congestion =
  Obs.Registry.counter Obs.Registry.default "capture_congestion_samples_total"
    ~help:"Samples taken while the mirror channel was congested"

let obs_records =
  Obs.Registry.counter Obs.Registry.default "capture_records_total"
    ~help:"Abstract records the capture materialized"

let obs_classes =
  Obs.Registry.counter Obs.Registry.default "capture_classes_total"
    ~help:"Flow classes the capture abstracted, one per (spec, subflow) drawn"

let record_sample_metrics ~captured ~stored ~congested ~materialized:m =
  if Obs.Registry.enabled () then begin
    Obs.Registry.inc obs_records (float_of_int (List.length m.records));
    Obs.Registry.inc obs_classes (float_of_int m.classes);
    Obs.Registry.inc obs_captured captured;
    Obs.Registry.inc obs_stored_bytes stored;
    if congested then Obs.Registry.incr obs_congestion
  end

let method_capacity_pps (config : Config.t) =
  let p = config.Config.host_profile in
  match config.Config.capture_method with
  | Config.Tcpdump -> Hostmodel.Host_profile.kernel_capacity_pps p
  | Config.Dpdk { cores } ->
    Hostmodel.Host_profile.dpdk_capacity_pps p ~cores
      ~truncation:config.Config.truncation
  | Config.Fpga_dpdk { cores; sample_1_in } ->
    (* The FPGA samples at line rate; the host only sees the
       survivors, so its effective capacity scales up by the sampling
       factor. *)
    Hostmodel.Host_profile.dpdk_capacity_pps p ~cores ~truncation:config.Config.truncation
    *. float_of_int sample_1_in

(* Pure, so the conservation property is qcheck-able over adversarial
   parameters without a fabric.  The host's capacity is stated in the
   frames the offload is shown, so [keep] is the same share of the
   frames it forwards. *)
let loss_breakdown ~offered_pps ~duration ~avg_frame_size ~switch_drop_frac
    ~congested ~capacity_pps ~truncation ~sample_1_in ~host_path =
  let offered_frames = offered_pps *. duration in
  let offered_bytes = offered_frames *. avg_frame_size in
  let switch_dropped = offered_frames *. switch_drop_frac in
  let after_pps = offered_pps *. (1.0 -. switch_drop_frac) in
  let keep =
    if after_pps <= 0.0 then 1.0 else Float.min 1.0 (capacity_pps /. after_pps)
  in
  let forwarded_pps = after_pps /. float_of_int sample_1_in in
  let sampled = (after_pps -. forwarded_pps) *. duration in
  let host_dropped = forwarded_pps *. (1.0 -. keep) *. duration in
  let captured = forwarded_pps *. keep *. duration in
  let wire = Float.min avg_frame_size (float_of_int truncation) in
  (* Truncation loses bytes, never frames; stored wire bytes are the
     exact complement so the byte identity closes. *)
  let truncated_bytes = captured *. Float.max 0.0 (avg_frame_size -. wire) in
  let stored_wire = (captured *. avg_frame_size) -. truncated_bytes in
  {
    b_offered_frames = offered_frames;
    b_offered_bytes = offered_bytes;
    b_switch_dropped = switch_dropped;
    b_host_dropped = host_dropped;
    b_captured_frames = captured;
    b_host_keep = keep;
    b_stored_wire_bytes = stored_wire;
    b_causes =
      [
        ( (if congested then Obs.Ledger.Mirror_congestion
           else Obs.Ledger.Switch_drop),
          switch_dropped,
          switch_dropped *. avg_frame_size );
        ( Obs.Ledger.Host_drop host_path,
          host_dropped,
          host_dropped *. avg_frame_size );
        (Obs.Ledger.Truncated, 0.0, truncated_bytes);
        (Obs.Ledger.Sampled, sampled, sampled *. avg_frame_size);
      ];
  }

(* Exemplar candidates for the ledger: the first few distinct flow keys
   of the materialized records.  Bounded so a heavy sample costs O(1). *)
let exemplar_keys ?(limit = 256) acaps =
  let seen = Hashtbl.create 64 in
  let rec go acc n = function
    | [] -> List.rev acc
    | _ when n >= limit -> List.rev acc
    | a :: rest -> (
      match Dissect.Acap.flow_key a with
      | Some k when not (Hashtbl.mem seen k) ->
        Hashtbl.add seen k ();
        go (k :: acc) (n + 1) rest
      | _ -> go acc n rest)
  in
  go [] 0 acaps

(* Expected number of distinct flows visible in a window: each attached
   spec contributes up to [subflows] distinct 5-tuples; with [f] frames
   spread uniformly across them, the expected number touched is
   n * (1 - (1 - 1/n)^f) ~ n * (1 - exp (-f/n)). *)
let flow_estimate specs ~start_time ~end_time =
  List.fold_left
    (fun acc spec ->
      let f = Flow_model.expected_frames spec ~start_time ~end_time in
      if f <= 0.0 then acc
      else begin
        let n = float_of_int spec.Flow_model.subflows in
        acc +. (n *. (1.0 -. exp (-.f /. n)))
      end)
    0.0 specs

let run ~fabric ~resolver ~(config : Config.t) ~rng ~site ~mirror
    ~mirrored_port =
  let engine = Fablib.engine fabric in
  let sw = Fablib.switch fabric ~site in
  let now = Simcore.Engine.now engine in
  let duration = config.Config.sample_duration in
  let window_end = now +. duration in
  (* Traffic state on the mirrored channels. *)
  let attachments = Switch.mirrored_attachments sw mirror in
  let specs =
    List.filter_map (fun (a : Switch.attachment) -> resolver a.Switch.flow) attachments
  in
  let offered_pps =
    List.fold_left (fun acc s -> acc +. Flow_model.frame_rate s) 0.0 specs
  in
  let offered_byte_rate =
    List.fold_left (fun acc s -> acc +. s.Flow_model.byte_rate) 0.0 specs
  in
  let avg_frame_size =
    if offered_pps > 0.0 then offered_byte_rate /. offered_pps else 800.0
  in
  (* Loss at the switch: the mirror clones Tx+Rx onto one Tx channel. *)
  let switch_drop_frac = Switch.mirror_drop_fraction sw mirror in
  (* Patchwork's congestion check compares the mirrored channel rates
     (from telemetry) against the line rate. *)
  let congestion_detected =
    Switch.mirrored_rate sw mirror *. 8.0 > Switch.line_rate sw
  in
  (* Loss at the host: whatever exceeds the capture method's capacity. *)
  let capacity = method_capacity_pps config in
  let host_path, sample_1_in =
    match config.Config.capture_method with
    | Config.Tcpdump -> (Hostmodel.Kernel_path.host_path, 1)
    | Config.Dpdk _ -> (Hostmodel.Dpdk_path.host_path, 1)
    | Config.Fpga_dpdk { sample_1_in; _ } -> (Hostmodel.Fpga_path.host_path, sample_1_in)
  in
  let b =
    loss_breakdown ~offered_pps ~duration ~avg_frame_size ~switch_drop_frac
      ~congested:congestion_detected ~capacity_pps:capacity
      ~truncation:config.Config.truncation ~sample_1_in ~host_path
  in
  let stored_per_frame =
    Float.min avg_frame_size (float_of_int config.Config.truncation) +. 16.0
  in
  let stored_bytes = b.b_captured_frames *. stored_per_frame in
  (* Materialization budget: thin uniformly if the sample is heavy.  It
     weighs the frames the offload is shown, as the offload's stride
     thins the draws on its own. *)
  let budget = float_of_int config.Config.max_frames_per_sample in
  let materialized_fraction =
    if b.b_captured_frames *. float_of_int sample_1_in <= budget then
      b.b_host_keep *. (1.0 -. switch_drop_frac)
    else budget /. b.b_offered_frames
  in
  let m =
    materialize ~config ~rng ~fraction:materialized_fraction ~start_time:now
      ~end_time:window_end specs
  in
  let acaps = m.records in
  record_sample_metrics ~captured:b.b_captured_frames ~stored:stored_bytes
    ~congested:congestion_detected ~materialized:m;
  if Obs.Ledger.enabled () then
    Obs.Ledger.record_sample Obs.Ledger.default ~site
      ~offered_frames:b.b_offered_frames ~offered_bytes:b.b_offered_bytes
      ~stored_frames:b.b_captured_frames ~stored_bytes:b.b_stored_wire_bytes
      ~keys:(exemplar_keys acaps) b.b_causes;
  {
    sample_site = site;
    sample_port = mirrored_port;
    sample_start = now;
    sample_duration = duration;
    acaps;
    materialized_fraction;
    pcap = m.pcap;
    stats =
      {
        loss = b;
        stored_bytes;
        flow_estimate = flow_estimate specs ~start_time:now ~end_time:window_end;
        congestion_detected;
      };
  }
