(** Structured run logs.

    Every Patchwork instance logs network- and host-related events so
    that users can notice problems after the fact (requirement R3); the
    logs travel with the captures to the coordinator and feed the
    success/failure analysis of Fig. 10. *)

type level = Debug | Info | Warning | Error

type entry = {
  time : float;
  level : level;
  component : string;  (** e.g. ["STAR/instance-0"] *)
  event : string;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity = 0] (the default) retains every entry; a positive
    [capacity] keeps the newest entries in a fixed-size ring buffer,
    evicting the oldest — the long-running weekly service uses this to
    bound memory.  Per-level counters (hence {!count}) always reflect
    every logged event, evicted or not. *)

val log : t -> time:float -> level:level -> component:string -> string -> unit

val count : ?min_level:level -> t -> int
(** Events logged at [min_level] or above, O(1) (includes entries a ring
    buffer has since evicted). *)

val next_seq : t -> int
(** The sequence number the next logged entry will get.  Entries are
    numbered monotonically from 0 in log order; numbering survives ring
    eviction, so a tailing client can detect gaps. *)

val drain_since : t -> seq:int -> (int * entry) list
(** Retained entries with sequence number [>= seq], oldest first, each
    paired with its number.  Pass the last seen seq + 1 (or
    {!next_seq} from a previous call) to tail incrementally; if the
    oldest returned seq is greater than [seq], the ring evicted entries
    in between.  Safe to call from any domain. *)

val level_name : level -> string
