(** Declarative threshold alerting over {!Series} windows.

    A rule names a series, a comparison against a threshold, and how
    many {e consecutive} samples must violate before the alert fires
    ("for N"); rules with labels apply independently to every labelled
    instance of the series (one [site_drop_rate] rule watches every
    site).  {!evaluate} is called once per collection round (after every
    occasion); it returns the firing/clearing transitions and mirrors
    the active set as a [patchwork_alert_active{rule,...}] gauge so
    alerts ride the same exposition endpoint as the metrics themselves.

    The textual rule syntax — also what [DESIGN.md] documents and what
    the CLI accepts — is

    {v <series> (>|<) <threshold> [for <occasions>] v}

    e.g. ["site_drop_rate > 0.05 for 3"] or
    ["pool_queue_wait_p99 > 0.5"]. *)

type op = Gt | Lt

type rule = {
  rule_name : string;  (** the rule's textual form *)
  series_name : string;
  op : op;
  threshold : float;
  for_count : int;  (** consecutive violating samples required; >= 1 *)
}

val rule :
  series:string ->
  op:op ->
  threshold:float ->
  ?for_count:int ->
  unit ->
  rule
(** Raises [Invalid_argument] if [for_count < 1]. *)

val rule_of_string : string -> (rule, string) result

type transition = Fired | Cleared

type event = {
  ev_rule : string;
  ev_labels : Registry.labels;  (** labels of the violating series *)
  ev_at : float;
  ev_value : float;  (** the newest sample that caused the transition *)
  ev_transition : transition;
}

type t

val create : ?registry:Registry.t -> rule list -> t
(** [registry] (default {!Registry.default}) receives the
    [patchwork_alert_active] gauge. *)

val evaluate : t -> at:float -> Series.Collector.t -> event list
(** Check every rule against the newest point of every matching series;
    thread-safe.  A series whose newest point is unchanged since the
    previous evaluate is skipped, so a stale sample is never re-counted
    toward a rule's "for N".  Returns the transitions of this round
    (empty when nothing changed state). *)

val rearm :
  t -> (string * Registry.labels * (float * float) list) list -> event list
(** Replay persisted series history — [(name, labels, (at, value)
    points oldest-first)] per series, e.g. {!Tsdb.tail} output — through
    the same state machine as {!evaluate}, one round per distinct
    timestamp.  After [rearm], firing/consecutive state and the
    [patchwork_alert_active] gauge match a service that never restarted.
    Returns the replayed transitions; callers normally discard them
    (they already fired before the restart). *)

val active : t -> (rule * Registry.labels * float) list
(** Currently-firing (rule, series labels, last value), sorted. *)

val to_json : t -> Export.Json.t
(** [{ "rules": [...], "active": [...] }] for the [/alerts.json]
    endpoint. *)

val event_to_string : event -> string
(** One log line, e.g.
    ["ALERT fired: site_drop_rate > 0.05 for 3 {site=STAR} value=0.12"]. *)
