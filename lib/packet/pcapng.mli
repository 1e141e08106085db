(** The pcapng capture format (Section Header + Interface Description +
    Enhanced Packet blocks).

    Modern Wireshark writes pcapng by default, so the offline pipeline
    accepts it alongside classic pcap.  The reader handles both byte
    orders, skips unknown block types, and tolerates multiple interfaces
    (all packets are read in file order). *)

exception Malformed of string

val index : bytes -> Pcap.index_entry array
(** Walk block headers sequentially and return one entry per
    Enhanced/Simple Packet block of every section, each resolving to a
    zero-copy {!Slice.t} via {!Pcap.Reader.slice}.  Raises {!Malformed}
    on bad block structure: a block length that is not a multiple of 4
    or overruns the buffer, a packet overrunning its block, a Simple
    Packet Block shorter than its 16 bytes of header and trailer, or a
    length or timestamp field with its top bit set (["field out of
    range"], as {!Pcap.Reader.index} says). *)

val is_pcapng : bytes -> bool
(** Checks the magic block type (and so distinguishes pcapng from
    classic pcap). *)

val fold_any :
  bytes ->
  init:'a ->
  f:('a -> ts:float -> orig_len:int -> off:int -> cap_len:int -> 'a) ->
  'a
(** Dispatch on magic: walk a classic pcap's records
    ({!Pcap.Reader.fold}) or a pcapng's packet blocks, under
    {!index}'s checks, handing each record to [f] as
    {!Pcap.Reader.fold} does, without building an index. *)

val index_any : bytes -> Pcap.index_entry array
(** Dispatch on magic: classic pcap or pcapng index. *)
