(* Federated scrape plane: pull per-site /metrics endpoints together.

   The paper's testbed is federated — capture runs at many sites and
   the operator needs one pane of glass.  A [t] holds a list of scrape
   targets (site name + exposition address); each [scrape] round GETs
   every target's Prometheus text, parses it with the round-trip parser
   from [Export], rewrites every sample with a ["site"] label (only
   when the exporting site did not already label it), and mirrors the
   values into the federation's own registry as gauges.  A dedicated
   [Series.Collector] then derives trends over that registry, so the
   central aggregator gets [site_drop_rate{site}] and friends computed
   federation-wide from the same delta logic the local service uses.

   Staleness is first-class: every round sets [up{site}] (1 scraped
   ok / 0 refused, timed out, non-200 or unparseable) and
   [scrape_duration_seconds{site}] gauges, and pushes a
   [scrape_age_seconds{site}] series (time since the target last
   answered).  A dead target is logged and skipped — it never blocks
   the other sites, and its [up] gauge is the alerting hook
   (["up < 1 for 2"]).

   The federation keeps its own registry and collector rather than
   writing into [Registry.default]: scraped values are foreign
   cumulative counters (settable only as gauges), and a collector's
   delta baseline is per-registry, so mixing both planes in one
   registry would corrupt the local service's own series. *)

type target = {
  site : string;
  host : string;
  port : int;
  path : string;
}

(* "SITE=HOST:PORT[/path]" or "SITE=PORT" (host defaults to loopback,
   path to /metrics).  The host must be a literal IP address — the
   scrape client does no name resolution. *)
let target_of_string s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad scrape target %S (expected SITE=HOST:PORT)" s)
  | Some eq -> (
    let site = String.sub s 0 eq in
    let addr = String.sub s (eq + 1) (String.length s - eq - 1) in
    if site = "" then Error (Printf.sprintf "bad scrape target %S (empty site)" s)
    else
      let addr, path =
        match String.index_opt addr '/' with
        | None -> (addr, "/metrics")
        | Some sl ->
          ( String.sub addr 0 sl,
            String.sub addr sl (String.length addr - sl) )
      in
      let host, port_s =
        match String.rindex_opt addr ':' with
        | None -> ("127.0.0.1", addr)
        | Some c ->
          ( String.sub addr 0 c,
            String.sub addr (c + 1) (String.length addr - c - 1) )
      in
      match int_of_string_opt port_s with
      | Some port when port > 0 && port < 65536 ->
        Ok { site; host; port; path }
      | _ -> Error (Printf.sprintf "bad scrape target %S (bad port %S)" s port_s))

type t = {
  targets : target list;
  timeout_s : float;
  log : string -> unit;
  registry : Registry.t; (* scraped samples, site-labelled, as gauges *)
  collector : Series.Collector.t;
  lock : Mutex.t;
  last_ok : (string, float) Hashtbl.t; (* site -> at of last good scrape *)
}

let create ?(timeout_s = 2.0) ?(log = fun _ -> ()) targets =
  {
    targets;
    timeout_s;
    log;
    registry = Registry.create ();
    collector = Series.Collector.create ();
    lock = Mutex.create ();
    last_ok = Hashtbl.create 8;
  }

let registry t = t.registry

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let site_label tgt labels =
  if List.mem_assoc "site" labels then labels
  else ("site", tgt.site) :: labels

(* Mirror one scraped data line into the federation registry.  Foreign
   counters cannot be written as counters (a registry counter only
   increments), so everything lands as a gauge carrying the scraped
   cumulative value; the collector's delta logic treats both alike. *)
let ingest t tgt (name, labels, value) =
  let labels = site_label tgt labels in
  Registry.set
    (Registry.gauge t.registry name ~labels
       ~help:"federated sample (scraped, site-labelled)")
    value

let up_gauge t site =
  Registry.gauge t.registry "up" ~labels:[ ("site", site) ]
    ~help:"1 while the site's exposition endpoint answers scrapes"

let duration_gauge t site =
  Registry.gauge t.registry "scrape_duration_seconds"
    ~labels:[ ("site", site) ]
    ~help:"Wall seconds the site's last scrape took"

let scrape_one t tgt =
  let t0 = Clock.now () in
  let outcome =
    match
      Http.get ~host:tgt.host ~timeout_s:t.timeout_s ~port:tgt.port tgt.path
    with
    | Ok (200, body) -> (
      match Export.parse_prometheus body with
      | Ok samples -> Ok samples
      | Error why -> Error (Printf.sprintf "unparseable exposition: %s" why))
    | Ok (status, _) -> Error (Printf.sprintf "HTTP %d" status)
    | Error why -> Error why
  in
  let dur = Clock.now () -. t0 in
  Registry.set (duration_gauge t tgt.site) dur;
  (match outcome with
  | Ok samples ->
    List.iter (ingest t tgt) samples;
    Registry.set (up_gauge t tgt.site) 1.0
  | Error why ->
    Registry.set (up_gauge t tgt.site) 0.0;
    t.log
      (Printf.sprintf "scrape %s (%s:%d%s) failed: %s" tgt.site tgt.host
         tgt.port tgt.path why));
  Result.is_ok outcome

(* One scrape round: pull every target (a refused or timed-out site is
   marked down and skipped, never blocking the rest), then run the
   collector over the refreshed registry.  Returns every point this
   round pushed — staleness series included — for persistence. *)
let scrape t ~at =
  Span.timed ~stage:"federation.scrape" @@ fun () ->
  let oks = List.map (fun tgt -> (tgt, scrape_one t tgt)) t.targets in
  locked t (fun () ->
      List.iter
        (fun (tgt, ok) -> if ok then Hashtbl.replace t.last_ok tgt.site at)
        oks);
  (* The collector's aggregate derivations (captured_bytes_per_s,
     pool_busy_fraction, ...) find no unlabelled backing sample in the
     federation registry — everything here is site-labelled — and come
     out as unlabelled zeros.  Those would shadow the local service's
     own aggregates at the same timestamp, so only site-scoped series
     leave the federation plane. *)
  let derived =
    List.filter
      (fun (_, labels, _) -> List.mem_assoc "site" labels)
      (Series.Collector.collect_points t.collector ~at t.registry)
  in
  (* Staleness and liveness as series, one point per round per site. *)
  let direct =
    List.concat_map
      (fun (tgt, ok) ->
        let labels = [ ("site", tgt.site) ] in
        let up_p = (("up" : string), labels, { Series.at; value = (if ok then 1.0 else 0.0) }) in
        Series.Collector.push_point t.collector ~name:"up" ~labels ~at
          (if ok then 1.0 else 0.0);
        match locked t (fun () -> Hashtbl.find_opt t.last_ok tgt.site) with
        | None -> [ up_p ] (* never answered: age is undefined *)
        | Some last ->
          let age = at -. last in
          Series.Collector.push_point t.collector ~name:"scrape_age_seconds"
            ~labels ~at age;
          [ up_p; ("scrape_age_seconds", labels, { Series.at; value = age }) ])
      oks
  in
  derived @ direct
