(** Big-endian (network byte order) binary writers.

    {!Writer} is a growable buffer used when encoding frames. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u64 : t -> int64 -> unit
  val string : t -> string -> unit
  val zeros : t -> int -> unit

  val subbytes : t -> bytes -> pos:int -> len:int -> unit
  (** Append the [len] bytes of a byte sequence from [pos]. *)

  val reserve : t -> int -> unit
  (** [reserve t n] makes room for [n] more bytes at once: storage too
      short for them is replaced by storage of exactly [length t + n]
      bytes, so [n] bytes of writes then fill it without a move. *)

  val contents : t -> bytes

  val buffer : t -> bytes
  (** The storage itself, not a copy: its first [length t] bytes are the
      contents.  A later write may move them to new storage. *)

  val patch_u16 : t -> pos:int -> int -> unit
  (** Overwrite a previously written 16-bit field (e.g. a length that is
      only known once the rest of the packet has been encoded). *)
end
