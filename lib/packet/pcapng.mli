(** The pcapng capture format (Section Header + Interface Description +
    Enhanced Packet blocks).

    Modern Wireshark writes pcapng by default, so the offline pipeline
    accepts it alongside classic pcap.  The reader handles both byte
    orders, skips unknown block types, and tolerates multiple interfaces
    (all packets are read in file order), each with its own timestamp
    resolution. *)

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
    record to [f] as {!Pcap.Reader.fold} does.  An Enhanced Packet
    Block's timestamp counts ticks of its interface's resolution: the
    [if_tsresol] option of the section's Interface Description Block
    with that index, 10{^-n} with the option's high bit clear and
    2{^-n} with it set, 10{^-6} without the option.  On a pcapng it
    raises {!Malformed} on bad block structure, once the records before
    the bad block are folded: a stream cut inside a block header
    (["truncated block header"]), a block length that is not a multiple
    of 4 or overruns the buffer, a packet overrunning its block, a
    Simple Packet Block shorter than its 16 bytes of header and
    trailer, an Enhanced Packet Block on an interface its section has
    not declared, an interface option overrunning its block or an
    [if_tsresol] longer or shorter than one byte, or a length or
    timestamp field with its top bit set (["field out of range"], as
    {!Pcap.Reader.fold} says). *)
