type t = {
  occasions : int;
  total_samples : int;
  total_frames : int;
  header_stats : Analyze.site_headers list;
  occurrence : (string * float) list;
  size_histogram : Netcore.Histogram.t;
  per_site_size : (string * Netcore.Histogram.t) list;
  flows_per_sample : float array;
  flow_summaries : Flows.summary list;
  ipv6_percent : float;
  jumbo_fraction : float;
}

module Builder = struct
  type site_acc = {
    tokens : (string, unit) Hashtbl.t;
    mutable deepest : int;
    mutable site_frames : int;
    size_hist : Netcore.Histogram.t;
  }

  (* A token's weighted count, updated in place: an all-float record
     holds its float unboxed, so a hit allocates nothing. *)
  type cell = { mutable w : float }

  type flow_acc = {
    mutable a_frames : float;  (* weighted, like bytes *)
    mutable a_bytes : float;
    mutable a_first : float;
    mutable a_last : float;
    mutable a_rst : bool;
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
    flow_table : (string, flow_acc) Hashtbl.t;
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

  let create ?log () =
    {
      occasions = 0;
      samples = 0;
      frames = 0;
      sites = Hashtbl.create 32;
      occurrence = Hashtbl.create 128;
      occurrence_total = 0.0;
      total_size_hist = Netcore.Histogram.create Analyze.standard_size_edges;
      flows_per_sample = [];
      flow_table = Hashtbl.create 4096;
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
          size_hist = Netcore.Histogram.create Analyze.standard_size_edges;
        }
      in
      Hashtbl.add b.sites site acc;
      acc

  let absorb_record b site_acc weight (r : Dissect.Acap.record) =
    b.frames <- b.frames + 1;
    (* Per-site header diversity. *)
    site_acc.site_frames <- site_acc.site_frames + 1;
    let depth = List.length r.Dissect.Acap.stack in
    if depth > site_acc.deepest then site_acc.deepest <- depth;
    List.iter (fun tok -> Hashtbl.replace site_acc.tokens tok ()) r.Dissect.Acap.stack;
    (* Weighted occurrence. *)
    b.occurrence_total <- b.occurrence_total +. weight;
    List.iter
      (fun tok ->
        let c =
          match Hashtbl.find b.occurrence tok with
          | c -> c
          | exception Not_found ->
            let c = { w = 0.0 } in
            Hashtbl.add b.occurrence tok c;
            c
        in
        c.w <- weight +. c.w)
      r.Dissect.Acap.stack;
    (* Weighted sizes.  Histograms take the exact float weight — the
       same 1/fraction the flow accounting applies — so a thinned
       sample's size distribution stays consistent with its flows
       instead of rounding each record's weight to an int. *)
    let len = float_of_int r.Dissect.Acap.orig_len in
    Netcore.Histogram.addf b.total_size_hist ~count:weight len;
    Netcore.Histogram.addf site_acc.size_hist ~count:weight len;
    if List.mem "ipv6" r.Dissect.Acap.stack then
      b.ipv6_weight <- b.ipv6_weight +. weight;
    if r.Dissect.Acap.orig_len > 1518 then b.jumbo_weight <- b.jumbo_weight +. weight;
    (* Flow aggregation. *)
    match Dissect.Acap.flow_key r with
    | None -> ()
    | Some key ->
      let acc =
        match Hashtbl.find_opt b.flow_table key with
        | Some acc -> acc
        | None ->
          let acc =
            {
              a_frames = 0.0;
              a_bytes = 0.0;
              a_first = r.Dissect.Acap.ts;
              a_last = r.Dissect.Acap.ts;
              a_rst = false;
            }
          in
          Hashtbl.add b.flow_table key acc;
          acc
      in
      (* A thinned sample under-counts frames exactly like bytes. *)
      acc.a_frames <- acc.a_frames +. weight;
      acc.a_bytes <- acc.a_bytes +. (len *. weight);
      acc.a_first <- Float.min acc.a_first r.Dissect.Acap.ts;
      acc.a_last <- Float.max acc.a_last r.Dissect.Acap.ts;
      acc.a_rst <- acc.a_rst || r.Dissect.Acap.tcp_rst

  let absorb_sample b (s : Patchwork.Capture.sample) records =
    b.samples <- b.samples + 1;
    b.flows_per_sample <-
      s.Patchwork.Capture.stats.Patchwork.Capture.flow_estimate :: b.flows_per_sample;
    let frac = s.Patchwork.Capture.materialized_fraction in
    if frac <= 0.0 && records <> [] then begin
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
    let weight = if frac > 0.0 then 1.0 /. frac else 1.0 in
    let acc = site_acc b s.Patchwork.Capture.sample_site in
    List.iter (absorb_record b acc weight) records

  let add_sample ?pool b (s : Patchwork.Capture.sample) =
    absorb_sample b s (Digest.sample_acaps ?pool s)

  let add_report ?(pool = Parallel.Pool.sequential) ?flow_store b report =
    b.occasions <- b.occasions + 1;
    (* Digestion — the expensive step — fans out across the pool, one
       task per sample; absorption into the shared builder then runs
       sequentially in sample order, so the profile is identical to a
       sequential build. *)
    let samples = Patchwork.Coordinator.all_samples report in
    let digested =
      Parallel.Pool.map pool (fun s -> Digest.sample_acaps s) samples
    in
    List.iter2 (absorb_sample b) samples digested;
    (* Stream the occasion's flows to disk at the occasion boundary:
       each sample becomes one weighted shard group, reusing the records
       digested above, so long runs keep only aggregates (and the spill
       buffer) in memory. *)
    match flow_store with
    | None -> ()
    | Some w ->
      List.iter2
        (fun (s : Patchwork.Capture.sample) records ->
          let shard = Flows.Shard.create () in
          List.iter (Flows.Shard.add shard) records;
          Flow_store.Writer.add_shard w ~site:s.Patchwork.Capture.sample_site
            ~fraction:s.Patchwork.Capture.materialized_fraction shard)
        samples digested

  let finish b =
    let header_stats =
      Hashtbl.fold
        (fun site acc l ->
          {
            Analyze.hs_site = site;
            distinct_headers = Hashtbl.length acc.tokens;
            deepest_stack = acc.deepest;
            frames = acc.site_frames;
          }
          :: l)
        b.sites []
      |> List.sort (fun a b -> compare a.Analyze.hs_site b.Analyze.hs_site)
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
    let flow_summaries =
      Hashtbl.fold
        (fun key acc l ->
          {
            Flows.flow_key = key;
            frames = acc.a_frames;
            bytes = acc.a_bytes;
            first_seen = acc.a_first;
            last_seen = acc.a_last;
            rst_seen = acc.a_rst;
          }
          :: l)
        b.flow_table []
      (* Same comparator as Flows.merge: byte ties break on the flow
         key, honouring the shard-order-independence contract. *)
      |> List.sort Flows.compare_by_bytes
    in
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
      (Report.site_header_rows t.header_stats)
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
  let show tok = Analyze.occurrence_of t.occurrence tok in
  Format.fprintf ppf
    "  occurrence: eth %.1f%%, vlan %.1f%%, mpls %.1f%%, ipv4 %.1f%%, tcp %.1f%%, udp %.1f%%@."
    (show "eth") (show "vlan") (show "mpls") (show "ipv4") (show "tcp") (show "udp");
  (match List.filter (fun s -> s.Analyze.frames > 0) t.header_stats with
  | [] -> ()
  | stats ->
    let min_d, max_d =
      List.fold_left
        (fun (lo, hi) s ->
          (min lo s.Analyze.distinct_headers, max hi s.Analyze.distinct_headers))
        (max_int, 0) stats
    in
    let min_deep, max_deep =
      List.fold_left
        (fun (lo, hi) s -> (min lo s.Analyze.deepest_stack, max hi s.Analyze.deepest_stack))
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
