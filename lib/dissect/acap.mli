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
    from: {!of_fields}, {!make} and {!stamp} are the only ways to build
    one.  The key reads neither the timestamp nor the lengths, which is
    what lets {!stamp} share it. *)

(** One frame's abstract fields, in a value reused frame after frame:
    the one route from a frame's bytes to its abstraction.  A digest
    fold dissects each frame into one [t] and hands it to its consumer,
    which reads what it counts and builds no record; {!of_fields} builds
    the record where one is wanted, as the capture does for each flow
    class from its template's bytes.  A frame is read where the
    dissector's {!Dissector.Tape} left it: nothing is allocated per
    frame, and the key is rendered only when asked.  A [t] belongs to
    one fold: it is overwritten by the next frame, so parallel folds
    each need their own. *)
module Fields : sig
  type t

  val create : unit -> t
  (** Fields with no frame, and the tape they are read from; the
      identity buffer is allocated by the first {!dissect}. *)

  val dissect : t -> bytes -> off:int -> cap_len:int -> orig_len:int -> unit
  (** Run {!Dissector.walk} over the [cap_len] captured bytes at [off]
      of a capture buffer and abstract the frame into [t], overwriting
      the previous one: its stack (the port-classified service token
      last), tags, innermost endpoints and ports, RST flag and flow
      identity. *)

  val depth : t -> int
  (** Tokens in the stack. *)

  val token : t -> int -> string
  (** [token t i] is the stack's [i]th token, outermost first. *)

  val code : t -> int -> int
  (** [Hashtbl.hash (token t i)], computed once per kind of header and
      per service rather than per frame: the profile finds a stack by
      these codes. *)

  val stack : t -> string list
  (** The stack as a record holds it. *)

  val identity : t -> bytes
  (** The buffer holding the frame's flow identity in its first
      {!identity_length} bytes: the bytes of exactly what {!key}
      renders (the tags, the innermost IP header's addresses as they
      sit on the wire, the protocol and the ports), so two frames with
      equal identities have equal keys.  Overwritten by the next
      frame. *)

  val identity_length : t -> int
  (** 0 when the frame has no flow key. *)

  val key : t -> string option
  (** The frame's {!flow_key}, rendered on this call. *)

  val tcp_rst : t -> bool
end

val of_fields : Fields.t -> ts:float -> orig_len:int -> record
(** The record of the frame [Fields] holds; [cap_len] and [truncated]
    are the dissected frame's. *)

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
(** Build a record from its fields, rendering its key as {!of_fields}
    renders a dissected frame's: the key's protocol is the first of
    ["tcp"], ["udp"], ["icmp"] and ["icmpv6"] in the stack, and a record
    without both endpoints has no key. *)

val stamp : record -> ts:float -> orig_len:int -> cap_len:int -> record
(** The same record with a new timestamp and lengths.  The copy shares
    the original's lists, strings and key: the capture path abstracts
    one frame per flow class and stamps every frame of the class from
    it. *)

val to_line : record -> string
(** Serialize as one tab-separated line. *)

val flow_key : record -> string option
(** Flow identity as used by the paper's analysis: virtualization tags
    (VLAN + MPLS) plus network- and transport-layer fields, so the same
    10/8 addresses in different slices yield different flows.  [None]
    for frames with no L3 header.  A field read of [key]. *)
