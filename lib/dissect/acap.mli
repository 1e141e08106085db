(** Abstract captures ("acap").

    The paper's Digest step runs protocol dissectors over raw pcaps and
    keeps, for each frame prefix, an abstract stack of headers together
    with timing and size metadata — discarding everything else.  An acap
    stream is much smaller than the pcap it came from and is what all
    subsequent analyses consume. *)

type record = {
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
}

val of_packet : Packet.Pcap.packet -> record
(** Dissect a pcap record and abstract it. *)

val of_slice : ts:float -> orig_len:int -> Packet.Slice.t -> record
(** Zero-copy flavour of {!of_packet}: dissect a view into the shared
    capture buffer in place.  Bit-identical to materializing the slice
    and calling {!of_packet}. *)

val of_entry : bytes -> Packet.Pcap.index_entry -> record
(** Resolve an index entry against its capture buffer and abstract it
    through the slice path. *)

val of_frame : ts:float -> Packet.Frame.t -> record
(** Abstract a frame directly (no wire round-trip); used by fast paths
    that skip serialization. *)

val to_line : record -> string
(** Serialize as one tab-separated line. *)

val of_line : string -> (record, string) result
(** Inverse of {!to_line}. *)

val flow_key : record -> string option
(** Flow identity as used by the paper's analysis: virtualization tags
    (VLAN + MPLS) plus network- and transport-layer fields, so the same
    10/8 addresses in different slices yield different flows.  [None]
    for frames with no L3 header. *)
