(** A P4-style match-action pipeline.

    Patchwork's FPGA offload is a P4 program compiled onto the Alveo
    NIC.  This module provides the abstraction that program is written
    in: a straight-line pipeline of match-action {e tables}.  Each table
    matches on header fields and executes the first matching entry's
    action list.  Supported actions cover what Patchwork offloads —
    dropping, truncation, systematic sampling, address rewriting, and
    counting.

    An entry matches with the user-facing {!Packet.Filter} language and
    its one evaluator, {!Packet.Filter.matches}, so {!Compile} puts the
    user's capture filter into a table unchanged, as Patchwork generates
    its P4 tables from the user's capture configuration. *)

type action =
  | A_pass  (** continue to the next table *)
  | A_drop  (** stop; frame is discarded *)
  | A_accept  (** stop; frame bypasses remaining tables *)
  | A_truncate of int  (** cap the bytes forwarded to the host *)
  | A_sample of int  (** keep every Nth frame reaching this action *)
  | A_anonymize of Anonymize.t  (** rewrite IP addresses *)
  | A_count of string  (** bump a named counter *)

type entry = { matches : Packet.Filter.t; actions : action list }

type table = { table_name : string; entries : entry list; default : action list }

type t

val create : table list -> t

type verdict = {
  frame : Packet.Frame.t option;  (** [None] when dropped or unsampled *)
  forwarded_bytes : int;  (** bytes handed to the host (post-truncation) *)
}

val process : t -> Packet.Frame.t -> verdict
(** Run a frame through every table in order. *)

val counter : t -> string -> int
(** Value of a named counter (0 if never bumped). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val stage_count : t -> int

module Compile : sig
  val of_filter :
    ?truncation:int ->
    ?sample_1_in:int ->
    ?anonymizer:Anonymize.t ->
    Packet.Filter.t ->
    t
  (** Patchwork's offload generator: a filter table (drop frames the
      filter does not match, with counters for both outcomes), then a
      sampling table, then an editing table (truncate + optionally
      anonymize). *)
end
