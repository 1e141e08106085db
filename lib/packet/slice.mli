(** An offset/length view into a shared immutable capture buffer.

    The indexed decode path never copies packet payloads: the pcap and
    pcapng readers produce record indexes ({!Pcap.index_entry}), each of
    which resolves to a slice of the single capture buffer, and the
    dissectors read headers in place through this API.  All accessors
    are bounds-checked against the slice, never the whole buffer, so a
    dissector can only see its own record's bytes.

    The underlying buffer must not be mutated while slices over it are
    live (capture buffers are write-once). *)

type t

val make : bytes -> off:int -> len:int -> t
(** View of [len] bytes of the buffer starting at [off].  Raises
    [Invalid_argument] when the window falls outside the buffer. *)

val buffer : t -> bytes
(** The shared underlying buffer (not a copy). *)

val off : t -> int
(** Offset of the slice within {!buffer}. *)

val length : t -> int

val get_u8 : t -> int -> int
(** Byte at slice-relative index.  Raises [Invalid_argument] out of
    range, as do all accessors below. *)

val get_u16_be : t -> int -> int
val get_u32_be : t -> int -> int32

val get_u8_fast : t -> int -> int
(** One-bounds-check-then-unsafe reads for the overlay dissection
    cursor: the window check runs exactly once per call, then the bytes
    are read with [Bytes.unsafe_get] — no second check inside the
    [Bytes] accessors and, for the 32-bit read, no int32 boxing.
    Behaviour is identical to the checked accessors on every in-window
    index and [Invalid_argument] out of window (qcheck'd). *)

val get_u16_be_fast : t -> int -> int

val get_u32_be_fast : t -> int -> int
(** Returns the big-endian 32-bit field as a plain non-negative [int]
    (numerically equal to the unsigned value of {!get_u32_be}). *)

val sub : t -> off:int -> len:int -> t
(** Narrowed view; offsets are slice-relative.  No copy. *)

val to_bytes : t -> bytes
(** Copy the viewed bytes out (the only copying operation here). *)

val equal_bytes : t -> bytes -> bool
(** Content equality against a materialized buffer, without copying. *)

val reader : t -> Netcore.Wire.Reader.t
(** A bounds-checked cursor over exactly the viewed bytes; this is how
    the dissectors consume a slice. *)
