(** The libpcap capture-file format (v2.4, LINKTYPE_ETHERNET).

    Patchwork's capture paths all produce pcap files and the analysis
    pipeline consumes them, so this codec is the interchange point
    between the two halves of the system.  Files written here are
    readable by tcpdump/Wireshark (big-endian byte order, which readers
    detect from the magic number). *)

module Writer : sig
  type t
  (** An in-memory pcap file: one growable byte buffer, which every
      record is encoded straight into. *)

  val create : ?snaplen:int -> unit -> t
  (** A file holding its global header.  [snaplen] (default 65535)
      truncates stored packet bytes, as a capture snap length does.
      Records are written big-endian; each costs its 16-byte header and
      its stored bytes. *)

  val add : t -> ts:float -> ?orig_len:int -> bytes -> unit
  (** Append a raw packet.  [orig_len] defaults to the byte length. *)

  val add_frame : t -> ts:float -> Frame.t -> unit
  (** Append the record a capture with the writer's snap length stores
      for a frame: its wire length, and the bytes
      [Codec.encode ~limit:snaplen frame] returns, encoded into the
      file's buffer only up to the snap length, so a record costs its
      stored bytes whatever the frame's wire length. *)

  val add_stamp :
    t -> ts:float -> Codec.template -> ident:int -> seq:int -> payload_len:int -> unit
  (** Append the record of a stamp of a template ({!Codec.stamp_into}):
      the same record {!add_frame} writes for the frame the stamp
      stands for, stamped straight into the file's buffer. *)

  val record_length : t -> wire_len:int -> int
  (** The bytes the record of a frame of [wire_len] wire bytes takes:
      its header and [min snaplen wire_len]. *)

  val reserve : t -> int -> unit
  (** Make room for that many more bytes at once, so that a writer
      reserved the sum of its records' {!record_length}s before it
      writes them allocates its buffer once, at the file's exact size. *)

  val packet_count : t -> int

  val contents : t -> bytes
  (** The file's bytes.  A buffer written to its last byte (as after
      {!reserve}) is returned itself, without a copy; the writer never
      writes into it again. *)

  val to_file : t -> string -> unit
end

module Reader : sig
  exception Malformed of string

  val fold :
    bytes ->
    init:'a ->
    f:('a -> ts:float -> orig_len:int -> off:int -> cap_len:int -> 'a) ->
    'a
  (** Walk the record headers in file order (payload bytes are never
      touched), handing each record's timestamp, original length and
      captured bytes ([cap_len] of them at [off] in the buffer) to [f].
      Raises {!Malformed} on a bad magic number, a truncated record, a
      record-header field with the top bit set (a corrupt length or
      timestamp ≥ 2{^31}), or an [incl_len] exceeding the file's
      declared snaplen, once the records before the bad one are
      folded. *)
end
