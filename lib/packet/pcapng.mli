(** The pcapng capture format (Section Header + Interface Description +
    Enhanced Packet blocks).

    Modern Wireshark writes pcapng by default, so the offline pipeline
    accepts it alongside classic pcap.  The reader handles both byte
    orders, skips unknown block types, and tolerates multiple interfaces
    (all packets are read in file order). *)

exception Malformed of string

val is_pcapng : bytes -> bool
(** Checks the magic block type (and so distinguishes pcapng from
    classic pcap). *)

val fold_any :
  bytes ->
  init:'a ->
  f:('a -> ts:float -> orig_len:int -> off:int -> cap_len:int -> 'a) ->
  'a
(** Dispatch on magic: walk a classic pcap's records
    ({!Pcap.Reader.fold}) or, block header by block header, a pcapng's
    Enhanced and Simple Packet Blocks of every section, handing each
    record to [f] as {!Pcap.Reader.fold} does.  On a pcapng it raises
    {!Malformed} on bad block structure, once the records before the bad
    block are folded: a stream cut inside a block header (["truncated
    block header"]), a block length that is not a multiple of 4 or
    overruns the buffer, a packet overrunning its block, a Simple Packet
    Block shorter than its 16 bytes of header and trailer, or a length
    or timestamp field with its top bit set (["field out of range"], as
    {!Pcap.Reader.fold} says). *)
