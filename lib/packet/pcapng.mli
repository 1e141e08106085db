(** The pcapng capture format (Section Header + Interface Description +
    Enhanced Packet blocks).

    Modern Wireshark writes pcapng by default, so the offline pipeline
    accepts it alongside classic pcap.  The reader handles both byte
    orders, skips unknown block types, and tolerates multiple interfaces
    (all packets are indexed in file order). *)

exception Malformed of string

val index : bytes -> Pcap.index_entry array
(** First pass of the indexed decode: walk block headers sequentially
    and return one entry per Enhanced/Simple Packet block of every
    section, each resolving to a zero-copy {!Slice.t} via
    {!Pcap.Reader.slice}.  Raises {!Malformed} on bad block structure. *)

val is_pcapng : bytes -> bool
(** Checks the magic block type (and so distinguishes pcapng from
    classic pcap). *)

val index_any : bytes -> Pcap.index_entry array
(** Dispatch on magic: classic pcap or pcapng index. *)
