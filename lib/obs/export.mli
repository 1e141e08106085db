(** Exposition formats for {!Registry} snapshots and {!Span} trees.

    Two exporters (Prometheus text, JSON) plus the JSON parser that
    [patchwork_cli report --in], [report --live] and [doctor] read
    snapshots and endpoints back with. *)

(** Minimal JSON: writer + recursive-descent parser (no external
    dependencies). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact; strings escaped; integral numbers printed without an
      exponent, non-finite numbers as strings. *)

  val parse : string -> (t, string) result
  val member : string -> t -> t option
  val to_float : t -> float option
  val to_str : t -> string option
end

val flatten : Registry.sample list -> (string * Registry.labels * float) list
(** The exposition data lines of a snapshot: counters and gauges as-is;
    each histogram expands to [name_bucket{le=...}] (cumulative),
    [name_sum] and [name_count].  Order matches {!to_prometheus}. *)

val to_prometheus : Registry.sample list -> string
(** Prometheus text exposition (HELP/TYPE comments plus {!flatten}'s
    data lines). *)

val to_json_string : ?spans:Span.span list -> Registry.sample list -> string
(** [{ "metrics": [...], "spans": [...] }]; spans nest recursively with
    wall seconds, minor words and notes. *)

val trace_events_string : ?process_name:string -> Span.span list -> string
(** Chrome trace-event JSON (chrome://tracing, Perfetto): a [B] and an
    [E] event per span, with the span's domain as [tid], so each
    domain's spans draw in a lane of their own. *)
