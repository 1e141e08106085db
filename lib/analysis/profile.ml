type site_headers = {
  hs_site : string;
  distinct_headers : int;
  deepest_stack : int;
  frames : int;
}

type t = {
  occasions : int;
  total_samples : int;
  total_frames : int;
  header_stats : site_headers list;
  occurrence : (string * float) list;
  size_histogram : Netcore.Histogram.t;
  per_site_size : (string * Netcore.Histogram.t) list;
  flows_per_sample : float array;
  flow_summaries : Flows.summary list;
  ipv6_percent : float;
  jumbo_fraction : float;
}

let standard_size_edges =
  [| 64.0; 128.0; 256.0; 512.0; 1024.0; 1519.0; 2048.0; 9000.0 |]

module Builder = struct
  type site_acc = {
    tokens : (string, unit) Hashtbl.t;
    mutable deepest : int;
    mutable site_frames : int;
    size_hist : Netcore.Histogram.t;
  }

  (* A token's weighted count, updated in place: an all-float record
     holds its float unboxed, so an add allocates nothing. *)
  type cell = { mutable w : float }

  type count = { mutable n : int }

  (* A distinct stack list and its frames in one sample. *)
  type stack_count = { stack : string list; mutable frames : int }

  module By_hash = Hashtbl.Make (Int)

  (* One sample's records as exact integer counts: per flow (the shard
     the flow store is handed), per distinct stack list, per size bin
     and over the jumbo line.  The sample's weight meets each count
     once, when the shard is absorbed, so the sums do not depend on
     record order.  Stacks are found by a hash of their tokens, so a
     folded frame's tokens are compared in place and a stack's list is
     built once per sample. *)
  type shard = {
    flows : Flows.Shard.t;
    stacks : stack_count list By_hash.t;
    bins : int array;
    mutable records : int;
    mutable jumbo : int;
  }

  type b = {
    mutable occasions : int;
    mutable samples : int;
    mutable frames : int;
    sites : (string, site_acc) Hashtbl.t;
    occurrence : (string, cell) Hashtbl.t;
    mutable occurrence_total : float;  (* weighted frame count *)
    total_size_hist : Netcore.Histogram.t;
    mutable flows_per_sample : float list;
    flows : Flows.Totals.t;
    mutable ipv6_weight : float;
    mutable jumbo_weight : float;
    log : Patchwork.Logging.t option;
  }

  type t = b

  let obs_unweighted =
    Obs.Registry.counter Obs.Registry.default "analysis_unweighted_samples_total"
      ~help:
        "Sample groups whose materialized_fraction was <= 0 and were \
         aggregated at weight 1.0"
      ~labels:[ ("stage", "profile") ]

  let size_hist () = Netcore.Histogram.create standard_size_edges

  (* Only its bins are read: it maps a frame length to its bin. *)
  let size_bins = size_hist ()

  let create ?log () =
    {
      occasions = 0;
      samples = 0;
      frames = 0;
      sites = Hashtbl.create 32;
      occurrence = Hashtbl.create 128;
      occurrence_total = 0.0;
      total_size_hist = size_hist ();
      flows_per_sample = [];
      flows = Flows.Totals.create ();
      ipv6_weight = 0.0;
      jumbo_weight = 0.0;
      log;
    }

  let site_acc b site =
    match Hashtbl.find_opt b.sites site with
    | Some acc -> acc
    | None ->
      let acc =
        {
          tokens = Hashtbl.create 64;
          deepest = 0;
          site_frames = 0;
          size_hist = size_hist ();
        }
      in
      Hashtbl.add b.sites site acc;
      acc

  let new_shard () =
    {
      flows = Flows.Shard.create ();
      stacks = By_hash.create 16;
      bins = Array.make (Array.length standard_size_edges + 1) 0;
      records = 0;
      jumbo = 0;
    }

  (* A stack's hash, over its tokens' [Hashtbl.hash] codes in order,
     whether they sit in a record's list or in the fields the digest
     left, which hold each token's code ready. *)
  let mix h code = (h * 31) + code

  module F = Dissect.Acap.Fields

  let rec fields_hash fields n h i =
    if i = n then h else fields_hash fields n (mix h (F.code fields i)) (i + 1)

  let rec same_as_fields fields n i = function
    | [] -> i = n
    | tok :: rest ->
      i < n && String.equal tok (F.token fields i) && same_as_fields fields n (i + 1) rest

  (* Bump the count of the bucket's stack that matches; false if none
     does. *)
  let rec bump_list stack = function
    | [] -> false
    | c :: rest ->
      if List.equal String.equal c.stack stack then begin
        c.frames <- c.frames + 1;
        true
      end
      else bump_list stack rest

  let rec bump_fields fields n = function
    | [] -> false
    | c :: rest ->
      if same_as_fields fields n 0 c.stack then begin
        c.frames <- c.frames + 1;
        true
      end
      else bump_fields fields n rest

  let bucket sh h = try By_hash.find sh.stacks h with Not_found -> []

  let count_size sh len =
    sh.records <- sh.records + 1;
    let bin = Netcore.Histogram.bin size_bins (float_of_int len) in
    sh.bins.(bin) <- sh.bins.(bin) + 1;
    if len > 1518 then sh.jumbo <- sh.jumbo + 1

  let count_record sh (r : Dissect.Acap.record) =
    let stack = r.Dissect.Acap.stack in
    let h = List.fold_left (fun h tok -> mix h (Hashtbl.hash tok)) 0 stack in
    let b = bucket sh h in
    if not (bump_list stack b) then
      By_hash.replace sh.stacks h ({ stack; frames = 1 } :: b);
    count_size sh r.Dissect.Acap.orig_len;
    Flows.Shard.add sh.flows r

  (* A folded frame: its stack is found by its tokens' codes and
     compared where the digest left it, and its flow by its identity. *)
  let count_fields sh flows fields ~orig_len ~ts =
    let n = F.depth fields in
    let h = fields_hash fields n 0 0 in
    let b = bucket sh h in
    if not (bump_fields fields n b) then
      By_hash.replace sh.stacks h ({ stack = F.stack fields; frames = 1 } :: b);
    count_size sh orig_len;
    Flows.Shard.add_frame flows fields ~ts ~orig_len

  (* A capture is folded frame by frame; a record list is counted as
     it is. *)
  let shard_of_pcap buf =
    let sh = new_shard () in
    let flows = Flows.Shard.index sh.flows in
    Digest.fold_pcap buf ~init:() ~f:(fun () fields ~orig_len ~ts ->
        count_fields sh flows fields ~orig_len ~ts);
    sh

  let shard_of_records records =
    let sh = new_shard () in
    List.iter (count_record sh) records;
    sh

  let shard_of_sample (s : Patchwork.Capture.sample) =
    match s.Patchwork.Capture.pcap with
    | Some buf -> shard_of_pcap buf
    | None -> shard_of_records s.Patchwork.Capture.acaps

  (* Add one shard's counts to the profile, each scaled once by
     [weight], as one capture at [site]. *)
  let add_shard b ~site ~weight sh =
    let weigh n = float_of_int n *. weight in
    let site = site_acc b site in
    b.frames <- b.frames + sh.records;
    site.site_frames <- site.site_frames + sh.records;
    (* Per-site header diversity, and each token's count in the shard:
       a token twice in one stack counts twice per frame. *)
    let tokens = Hashtbl.create 32 and ipv6 = ref 0 in
    By_hash.iter
      (fun _ bucket ->
        List.iter
          (fun { stack; frames } ->
            site.deepest <- max site.deepest (List.length stack);
            if List.mem "ipv6" stack then ipv6 := !ipv6 + frames;
            List.iter
              (fun tok ->
                Hashtbl.replace site.tokens tok ();
                match Hashtbl.find tokens tok with
                | t -> t.n <- t.n + frames
                | exception Not_found -> Hashtbl.add tokens tok { n = frames })
              stack)
          bucket)
      sh.stacks;
    (* Weighted occurrence, sizes and shares: one add per cell. *)
    Hashtbl.iter
      (fun tok t ->
        let c =
          match Hashtbl.find b.occurrence tok with
          | c -> c
          | exception Not_found ->
            let c = { w = 0.0 } in
            Hashtbl.add b.occurrence tok c;
            c
        in
        c.w <- c.w +. weigh t.n)
      tokens;
    b.occurrence_total <- b.occurrence_total +. weigh sh.records;
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          Netcore.Histogram.add_bin b.total_size_hist i ~count:(weigh n);
          Netcore.Histogram.add_bin site.size_hist i ~count:(weigh n)
        end)
      sh.bins;
    b.ipv6_weight <- b.ipv6_weight +. weigh !ipv6;
    b.jumbo_weight <- b.jumbo_weight +. weigh sh.jumbo;
    Flows.Totals.add b.flows sh.flows ~weight

  (* What only a sample has: its flow estimate, and a weight its
     materialized fraction may fail to give. *)
  let absorb b (s : Patchwork.Capture.sample) sh =
    b.samples <- b.samples + 1;
    b.flows_per_sample <-
      s.Patchwork.Capture.stats.Patchwork.Capture.flow_estimate :: b.flows_per_sample;
    let frac = s.Patchwork.Capture.materialized_fraction in
    if frac <= 0.0 && sh.records > 0 then begin
      (* A thinned-to-nothing sample cannot be re-weighted; make the
         weight-1.0 fallback visible instead of silent. *)
      Obs.Registry.incr obs_unweighted;
      match b.log with
      | None -> ()
      | Some l ->
        Patchwork.Logging.log l ~time:s.Patchwork.Capture.sample_start
          ~level:Patchwork.Logging.Warning
          ~component:("analysis/profile/" ^ s.Patchwork.Capture.sample_site)
          (Printf.sprintf
             "sample at %.0fs has materialized_fraction %g <= 0; absorbing \
              unweighted (weight 1.0)"
             s.Patchwork.Capture.sample_start frac)
    end;
    add_shard b ~site:s.Patchwork.Capture.sample_site
      ~weight:(Flows.weight_of_fraction frac) sh

  let add_report ?(pool = Parallel.Pool.sequential) ?flow_store b report =
    b.occasions <- b.occasions + 1;
    (* Digesting and counting each sample fans out across the pool, one
       task per sample; the shards are then absorbed in sample order,
       so the profile is identical to a sequential build.  The flow
       store gets each sample's flow shard as its next group, at the
       occasion boundary, so long runs keep only aggregates (and the
       spill buffer) in memory. *)
    let samples = Patchwork.Coordinator.all_samples report in
    let shards =
      Parallel.Pool.map pool shard_of_sample samples
    in
    List.iter2
      (fun (s : Patchwork.Capture.sample) sh ->
        absorb b s sh;
        Option.iter
          (fun w ->
            Flow_store.Writer.add_shard w ~site:s.Patchwork.Capture.sample_site
              ~fraction:s.Patchwork.Capture.materialized_fraction sh.flows)
          flow_store)
      samples shards

  let finish b =
    let header_stats =
      Hashtbl.fold
        (fun site acc l ->
          ({
             hs_site = site;
             distinct_headers = Hashtbl.length acc.tokens;
             deepest_stack = acc.deepest;
             frames = acc.site_frames;
           }
            : site_headers)
          :: l)
        b.sites []
      |> List.sort (fun a b -> compare a.hs_site b.hs_site)
    in
    let occurrence =
      let total = Float.max 1e-9 b.occurrence_total in
      Hashtbl.fold
        (fun tok c acc -> (tok, 100.0 *. c.w /. total) :: acc)
        b.occurrence []
      (* Percent-tied tokens break on the token itself, so the order
         never depends on hash iteration. *)
      |> List.sort (fun (ta, a) (tb, b) ->
             match compare b a with 0 -> compare ta tb | c -> c)
    in
    let per_site_size =
      Hashtbl.fold (fun site acc l -> (site, acc.size_hist) :: l) b.sites []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let flow_summaries = Flows.Totals.summaries b.flows in
    let total_weight = Float.max 1e-9 b.occurrence_total in
    {
      occasions = b.occasions;
      total_samples = b.samples;
      total_frames = b.frames;
      header_stats;
      occurrence;
      size_histogram = b.total_size_hist;
      per_site_size;
      flows_per_sample = Array.of_list (List.rev b.flows_per_sample);
      flow_summaries;
      ipv6_percent = 100.0 *. b.ipv6_weight /. total_weight;
      jumbo_fraction = b.jumbo_weight /. total_weight;
    }
end

(* Every field is pure data (floats, ints, strings, arrays, lists), so
   polymorphic equality is exact; this is what the pipelined-vs-
   sequential identity checks assert. *)
let equal (a : t) (b : t) = a = b

let of_reports ?pool reports =
  let b = Builder.create () in
  List.iter (Builder.add_report ?pool b) reports;
  Builder.finish b

let of_shard sh =
  let b = Builder.create () in
  Builder.add_shard b ~site:"" ~weight:1.0 sh;
  Builder.finish b

let of_pcap buf = of_shard (Builder.shard_of_pcap buf)
let of_records records = of_shard (Builder.shard_of_records records)

let occurrence_of table token =
  Option.value ~default:0.0 (List.assoc_opt token table)

let site_header_rows stats =
  List.map
    (fun s ->
      [
        s.hs_site;
        string_of_int s.distinct_headers;
        string_of_int s.deepest_stack;
        string_of_int s.frames;
      ])
    stats

let write_csv_files t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name ~header rows =
    Report.write_file (Filename.concat dir name) (Report.csv_of_rows ~header rows);
    name
  in
  let f1 =
    write "header_occurrence.csv" ~header:[ "protocol"; "percent_of_frames" ]
      (Report.occurrence_rows t.occurrence)
  in
  let f2 =
    write "site_headers.csv"
      ~header:[ "site"; "distinct_headers"; "deepest_stack"; "frames" ]
      (site_header_rows t.header_stats)
  in
  let f3 =
    write "frame_sizes.csv" ~header:[ "bin"; "count"; "fraction" ]
      (Report.histogram_rows t.size_histogram)
  in
  let f4 =
    write "flows_per_sample.csv" ~header:[ "sample"; "flows" ]
      (Array.to_list
         (Array.mapi
            (fun i v -> [ string_of_int i; Printf.sprintf "%.1f" v ])
            t.flows_per_sample))
  in
  let f5 =
    write "flows.csv"
      ~header:[ "flow_key"; "frames"; "bytes"; "first_seen"; "last_seen"; "rst" ]
      (Report.flow_rows (Flows.top_n t.flow_summaries 10_000))
  in
  [ f1; f2; f3; f4; f5 ]

let pp_summary ppf t =
  Format.fprintf ppf "profile: %d occasions, %d samples, %d frames analyzed@."
    t.occasions t.total_samples t.total_frames;
  Format.fprintf ppf "  IPv6: %.2f%% of frames; jumbo: %.1f%% of frames@."
    t.ipv6_percent (100.0 *. t.jumbo_fraction);
  let show tok = occurrence_of t.occurrence tok in
  Format.fprintf ppf
    "  occurrence: eth %.1f%%, vlan %.1f%%, mpls %.1f%%, ipv4 %.1f%%, tcp %.1f%%, udp %.1f%%@."
    (show "eth") (show "vlan") (show "mpls") (show "ipv4") (show "tcp") (show "udp");
  (match List.filter (fun s -> s.frames > 0) t.header_stats with
  | [] -> ()
  | stats ->
    let min_d, max_d =
      List.fold_left
        (fun (lo, hi) s ->
          (min lo s.distinct_headers, max hi s.distinct_headers))
        (max_int, 0) stats
    in
    let min_deep, max_deep =
      List.fold_left
        (fun (lo, hi) s -> (min lo s.deepest_stack, max hi s.deepest_stack))
        (max_int, 0) stats
    in
    Format.fprintf ppf
      "  per-site distinct headers: %d-%d; deepest stacks: %d-%d@." min_d max_d
      min_deep max_deep);
  if Array.length t.flows_per_sample > 0 then begin
    let stats = Netcore.Dist.Summary.of_array t.flows_per_sample in
    Format.fprintf ppf "  flows per 20s sample: p50 %.0f, p90 %.0f, max %.0f@."
      stats.Netcore.Dist.Summary.p50 stats.Netcore.Dist.Summary.p90
      stats.Netcore.Dist.Summary.max
  end
