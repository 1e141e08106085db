(** Top-of-rack switch model.

    Each FABRIC site has one ToR switch.  The model tracks, per port and
    per direction, cumulative SNMP-style counters (bytes, frames) that
    are updated lazily from the set of currently attached traffic flows,
    plus port-mirroring sessions.

    Port mirroring follows the paper's semantics: a session clones the
    Rx and/or Tx channel of a source port onto the {e Tx} channel of a
    destination port.  If the combined mirrored rate exceeds the
    destination's line rate, the excess is dropped at the switch before
    transmission — exactly the incomplete-sample hazard that Patchwork
    must detect (requirement R3). *)

type t

type dir = Rx | Tx
(** Direction from the switch's point of view: [Rx] is traffic arriving
    at the port, [Tx] is traffic the switch transmits out of it. *)

type mirror_dirs = Rx_only | Tx_only | Both

type counters = {
  tx_bytes : float;
  rx_bytes : float;
  tx_frames : float;
  rx_frames : float;
}

type attachment = {
  flow : int;  (** the flow handle this attachment belongs to *)
  port : int;
  dir : dir;
  byte_rate : float;  (** bytes per second crossing the channel *)
  frame_rate : float;  (** frames per second *)
}

val create : Simcore.Engine.t -> site_name:string -> ports:int -> line_rate:float -> t

val site_name : t -> string
val port_count : t -> int
val line_rate : t -> float

(** {2 Traffic attachment} *)

val attach_flow :
  t -> port:int -> dir:dir -> byte_rate:float -> frame_rate:float -> flow:int -> unit
(** Register a flow's contribution to one channel of one port.  The same
    [flow] handle may be attached to several (port, dir) channels. *)

val detach_flow : t -> flow:int -> unit
(** Remove every attachment of a flow handle. *)

val attachments : t -> port:int -> attachment list
(** Currently attached contributions on a port (both directions). *)

(** {2 Counters (SNMP view)} *)

val read_counters : t -> port:int -> counters
(** Cumulative counters as of the engine's current time. *)

(** {2 Port mirroring} *)

val add_mirror : t -> src_port:int -> dirs:mirror_dirs -> dst_port:int -> (int, string) result
(** Start a mirror session; returns its id.  Fails if either port is out
    of range, ports coincide, or the source is already mirrored (a port
    can be mirrored by only one session at a time). *)

val remove_mirror : t -> int -> unit
val mirror_count : t -> int

val mirrored_rate : t -> int -> float
(** Combined byte rate (bytes/s) the session is trying to clone. *)

val mirror_drop_fraction : t -> int -> float
(** Fraction of mirrored frames currently dropped because the combined
    mirrored rate exceeds the destination port's line rate: [0] when
    healthy, approaching 1 under heavy overload. *)

val mirrored_attachments : t -> int -> attachment list
(** Attachments on the mirrored channels of a session's source port. *)
