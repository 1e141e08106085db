(** Zero-alloc overlay dissection for the digest hot path.

    A cursor-style classifier (after Snabb's [header:new_from_mem]
    overlay idiom) that reads header fields in place through
    {!Packet.Slice} accessors and produces exactly what flow accounting
    needs — the flow key and the RST bit — with no
    [Packet.Headers.header list] and no intermediate records per frame.
    The only per-frame allocation is the rendered key string itself.

    The cursor mirrors {!Dissector.dissect_reader} bit-for-bit on every
    layer that can influence those outputs (Ethernet, VLAN, MPLS,
    PseudoWire, IPv4/IPv6 extent narrowing, TCP/UDP/ICMP, VXLAN
    re-entry) and skips the app-layer classifiers, which only add stack
    tokens the key ignores.  Frames nested beyond the encapsulation
    budget fall back to the reference record dissector, so the flow key
    and RST agree with {!Acap.flow_key} ∘ {!Acap.of_slice} on every
    frame.  Instances hold reusable scratch and are not thread-safe;
    the digest creates one per range worker. *)

type t

val create : unit -> t

val classify : t -> orig_len:int -> Packet.Slice.t -> unit
(** Classify one frame; results are read through the accessors below
    and stay valid until the next [classify] on the same [t]. *)

val key : t -> string option
(** The flow key ([None] when no IP header parsed), byte-identical to
    [Acap.flow_key (Acap.of_slice ...)] on the same frame. *)

val rst : t -> bool
(** TCP RST seen (always [false] when no complete TCP header). *)

val classified : t -> int
(** Lifetime count of frames classified by the overlay cursor. *)

val fallbacks : t -> int
(** Lifetime count of frames deferred to the reference dissector
    (encapsulation nesting beyond the overlay's depth budget). *)
