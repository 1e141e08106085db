(** The Process step: CSV production.

    The paper's pipeline ends by emitting CSV files describing each
    aspect of the profile, which separate scripts turn into graphs. *)

val csv_escape : string -> string
(** Quote a field when it contains commas, quotes or newlines. *)

val csv_of_rows : header:string list -> string list list -> string

val write_file : string -> string -> unit
(** [write_file path contents]. *)

val histogram_rows : Netcore.Histogram.t -> string list list
(** Rows of (bin label, count, fraction). *)

val occurrence_rows : (string * float) list -> string list list
val flow_rows : Flows.summary list -> string list list
