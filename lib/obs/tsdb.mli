(** Persistent telemetry store: append-only segment files of series
    points.

    The weekly service survives restarts, so its operational series must
    too.  A store is a directory of sorted [.pwts] segments in the
    {!Segment} format, each committed whole by a rename; appends buffer
    in memory until {!flush} writes one new [tsdb-NNNNNN.pwts].  A write
    killed before its rename leaves only a temporary, which
    {!open_store} deletes. *)

type record = {
  t_name : string;
  t_labels : Registry.labels;  (** canonically sorted *)
  t_at : float;
  t_value : float;
}

exception Corrupt of string
(** Equal to {!Segment.Corrupt}. *)

val raw_point : name:string -> ?labels:Registry.labels -> at:float -> float -> record

val point_of_record : record -> float * float
(** The [(at, value)] a record contributes to a rendered series. *)

val compare_record : record -> record -> int
(** Segment sort order: name, labels, time. *)

val schema : record Segment.schema
(** The [.pwts] segment schema: records in {!compare_record} order with
    ties allowed, sorted labels, and the kind byte 0 before each
    point's time and value; any other kind byte is [Corrupt]. *)

(** {1 Query predicates} *)

type predicate

val predicate : ?since:float -> ?until:float -> ?name:string -> ?labels:Registry.labels -> unit -> predicate

val segments_in_dir : string -> string list
(** The committed [.pwts] segments in a directory, sorted; [] when the
    directory does not exist.  The store, its queries and every offline
    reader list through this. *)

(** {1 Store handle} *)

type t

val open_store : dir:string -> unit -> t
(** Open (or create) a store directory, deleting the temporaries of
    uncommitted writes (counted in [tsdb_segments_removed_total]). *)

val dir : t -> string

val segments : t -> string list

val append_point : t -> name:string -> ?labels:Registry.labels -> at:float -> float -> unit

val flush : t -> int
(** Write buffered records as one segment; returns the records
    flushed. *)

(** {1 Reading} *)

val query : ?pred:predicate -> string list -> (string * Registry.labels * record list) list
(** Matching records grouped per series, series in canonical order. *)

val query_store : ?pred:predicate -> t -> (string * Registry.labels * record list) list
(** {!query} over the store's committed segments. *)

val tail : ?pred:predicate -> n:int -> string list -> (string * Registry.labels * (float * float) list) list
(** The last [n] points per series — what a restarted service re-arms
    alerts from. *)

val tail_store : n:int -> t -> (string * Registry.labels * (float * float) list) list
