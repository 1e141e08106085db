(** Federated scrape plane: pull per-site /metrics endpoints together.

    The paper's testbed is federated — capture runs at many sites and
    the operator needs one pane of glass.  A {!t} holds scrape targets;
    each {!scrape} round GETs every target's Prometheus text, rewrites
    samples with a ["site"] label and mirrors them as gauges into the
    federation's own registry, over which a dedicated collector derives
    site-scoped trend series.  Staleness is first-class: every round
    sets [up{site}] and [scrape_duration_seconds{site}] and pushes
    [scrape_age_seconds{site}].  A dead target is logged and skipped,
    never blocking the other sites.

    The federation keeps its own registry/collector rather than writing
    into [Registry.default]: scraped values are foreign cumulative
    counters (settable only as gauges), and delta baselines are
    per-registry, so mixing planes would corrupt the local series. *)

type target = {
  site : string;
  host : string;
  port : int;
  path : string;
}

val target_of_string : string -> (target, string) result
(** Parse ["SITE=HOST:PORT[/path]"] or ["SITE=PORT"] (host defaults to
    loopback, path to [/metrics]).  The host must be a literal IP
    address — the scrape client does no name resolution. *)

type t

val create : ?timeout_s:float -> ?log:(string -> unit) -> target list -> t
(** [timeout_s] bounds each scrape (default 2s). *)

val registry : t -> Registry.t
(** The federation's own registry of site-labelled scraped gauges. *)

val scrape :
  t -> at:float -> (string * Registry.labels * Series.point) list
(** One scrape round over every target; returns every point this round
    pushed — derived site-scoped series plus the [up]/
    [scrape_age_seconds] staleness series — for persistence. *)
