(** Persistent telemetry store: append-only segment files of series
    records with downsampling compaction.

    The weekly service survives restarts, so its operational series must
    too.  A store is a directory of sorted [.pwts] segments in the
    {!Segment} format, each committed whole by a rename; appends buffer
    in memory until {!flush} writes one new [tsdb-NNNNNN.pwts], and
    every second flush {!compact} merges the segments into one
    [tsdb-NNNNNN-merged.pwts], applying retention and (when a
    [resolution] is set) folding raw points older than the newest
    bucket boundary into per-bucket aggregates whose
    count/sum/min/max/last equal a recomputation over the raw points
    they replace.

    A compaction commits its merge before it removes its inputs, so a
    kill between the two leaves inputs beside the merge that replaced
    them; {!segments_in_dir} never lists them, and {!open_store}
    deletes them along with any temporary a killed write left. *)

type record = {
  t_name : string;
  t_labels : Registry.labels;  (** canonically sorted *)
  t_at : float;  (** raw timestamp, or bucket start *)
  t_res : float;  (** 0 = raw point; else the bucket width, seconds *)
  t_count : int;
  t_sum : float;
  t_min : float;
  t_max : float;
  t_last : float;
  t_last_at : float;
}

exception Corrupt of string
(** Equal to {!Segment.Corrupt}. *)

val raw_point : name:string -> ?labels:Registry.labels -> at:float -> float -> record

val is_raw : record -> bool

val point_of_record : record -> float * float
(** The [(at, value)] a record contributes to a rendered series: a raw
    point is itself; a bucket stands in with its last raw point. *)

val record_end : record -> float
(** A record's time extent (raw: [t_at]; bucket: [t_at + t_res]). *)

val compare_record : record -> record -> int
(** Segment sort order: name, labels, time, resolution. *)

val schema : record Segment.schema
(** The [.pwts] segment schema: records in {!compare_record} order with
    ties allowed, a kind byte (0 raw, 1 bucket), sorted labels, buckets
    with count >= 1 and min <= max. *)

(** {1 Query predicates} *)

type predicate

val predicate : ?since:float -> ?until:float -> ?name:string -> ?labels:Registry.labels -> unit -> predicate

val segments_in_dir : string -> string list
(** The live [.pwts] segments in a directory, sorted: the last merge and
    every segment after it; [] when the directory does not exist.  The
    store, its queries and every offline reader list through this. *)

(** {1 Store handle} *)

type t

val open_store : ?retention:float -> ?resolution:float -> dir:string -> unit -> t
(** Open (or create) a store directory, deleting the temporaries of
    uncommitted writes and the segments a committed merge superseded
    (counted in [tsdb_segments_removed_total{reason}]).  [retention]
    drops records whose end falls more than that many seconds behind
    the newest timestamp at compaction; [resolution] enables
    downsampling. *)

val dir : t -> string

val segments : t -> string list

val append_point : t -> name:string -> ?labels:Registry.labels -> at:float -> float -> unit

val compact : t -> unit
val flush : t -> int
(** Write buffered records as one segment (compacting on cadence);
    returns the records flushed. *)

(** {1 Reading} *)

val query : ?pred:predicate -> string list -> (string * Registry.labels * record list) list
(** Matching records grouped per series, series in canonical order. *)

val query_store : ?pred:predicate -> t -> (string * Registry.labels * record list) list
(** {!query} over the store's segments, holding the store lock so a
    concurrent flush/compact cannot delete segments mid-scan. *)

val tail : ?pred:predicate -> n:int -> string list -> (string * Registry.labels * (float * float) list) list
(** The last [n] rendered points per series — what a restarted service
    re-arms alerts and warms memory windows from. *)

val tail_store : n:int -> t -> (string * Registry.labels * (float * float) list) list
