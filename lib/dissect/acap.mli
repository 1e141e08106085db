(** Abstract captures ("acap").

    The paper's Digest step runs protocol dissectors over raw pcaps and
    keeps, for each frame prefix, an abstract stack of headers together
    with timing and size metadata — discarding everything else.  An acap
    stream is much smaller than the pcap it came from and is what all
    subsequent analyses consume. *)

type record = private {
  ts : float;
  orig_len : int;  (** wire length of the original frame *)
  cap_len : int;  (** bytes that were captured *)
  stack : string list;  (** protocol tokens, outermost first *)
  vlan_ids : int list;
  mpls_labels : int list;
  src : string option;  (** innermost L3 source, rendered *)
  dst : string option;
  l4 : (int * int) option;  (** (src port, dst port) *)
  tcp_rst : bool;  (** RST-flagged TCP segment *)
  truncated : bool;
  key : string option;
      (** the {!flow_key} of the fields above, rendered once when the
          record is built *)
}
(** Private so that [key] always agrees with the fields it is rendered
    from: {!make}, {!stamp} and the dissecting constructors below are
    the only ways to build one.  The key reads neither the timestamp nor
    the lengths, which is what lets {!stamp} share it. *)

(** One frame's abstract fields, in a value reused frame after frame.
    A digest fold dissects each frame into one [t] and hands it to its
    consumer, which reads what it counts and builds no record;
    {!of_fields} builds the record where one is wanted.  Every record
    constructor goes through it, so the stack and the flow key are
    rendered in one place.  A [t] belongs to one fold: it is
    overwritten by the next frame, so parallel folds each need their
    own. *)
module Fields : sig
  type t

  val create : unit -> t

  val dissect : t -> orig_len:int -> Packet.Slice.t -> unit
  (** Run {!Dissector.dissect_slice} over a captured record and
      abstract its headers into [t], overwriting the previous frame:
      the stack tokens (the port-classified service token last), the
      flow key rendered into [t]'s buffer, and the RST flag. *)

  val depth : t -> int
  (** Tokens in the stack. *)

  val token : t -> int -> string
  (** [token t i] is the stack's [i]th token, outermost first. *)

  val stack : t -> string list
  (** The stack as a record holds it. *)

  val key : t -> string option
  (** The frame's {!flow_key}, copied out of the buffer: the one string
      a fold's consumer needs per frame. *)

  val tcp_rst : t -> bool
end

val of_fields : Fields.t -> ts:float -> orig_len:int -> record
(** The record of the frame [Fields] holds; [cap_len] and [truncated]
    are the dissected record's. *)

val make :
  ts:float ->
  orig_len:int ->
  cap_len:int ->
  stack:string list ->
  vlan_ids:int list ->
  mpls_labels:int list ->
  src:string option ->
  dst:string option ->
  l4:(int * int) option ->
  tcp_rst:bool ->
  truncated:bool ->
  record
(** Build a record from its fields, rendering its key. *)

val stamp : record -> ts:float -> orig_len:int -> cap_len:int -> record
(** The same record with a new timestamp and lengths.  The copy shares
    the original's lists, strings and key: the capture path abstracts
    one frame per flow class and stamps every frame of the class from
    it. *)

val of_slice : ts:float -> orig_len:int -> Packet.Slice.t -> record
(** Dissect a view into the shared capture buffer in place, without
    copying the packet out of it. *)

val of_entry : bytes -> Packet.Pcap.index_entry -> record
(** Resolve an index entry against its capture buffer and abstract it
    through the slice path. *)

val of_frame : ts:float -> Packet.Frame.t -> record
(** Abstract a frame's typed headers directly (no wire round-trip), as
    the capture abstracts one frame per flow class. *)

val to_line : record -> string
(** Serialize as one tab-separated line. *)

val flow_key : record -> string option
(** Flow identity as used by the paper's analysis: virtualization tags
    (VLAN + MPLS) plus network- and transport-layer fields, so the same
    10/8 addresses in different slices yield different flows.  [None]
    for frames with no L3 header.  A field read of [key]. *)
