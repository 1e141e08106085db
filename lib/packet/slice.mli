(** An offset/length view into a shared immutable capture buffer.

    The indexed decode path never copies packet payloads: the pcap and
    pcapng readers produce record indexes ({!Pcap.index_entry}), each of
    which resolves to a slice of the single capture buffer, and the
    dissectors read headers in place through {!reader}, a cursor
    bounds-checked against the slice, never the whole buffer, so a
    dissector can only see its own record's bytes.

    The underlying buffer must not be mutated while slices over it are
    live (capture buffers are write-once). *)

type t

val make : bytes -> off:int -> len:int -> t
(** View of [len] bytes of the buffer starting at [off].  Raises
    [Invalid_argument] when the window falls outside the buffer. *)

val length : t -> int

val reader : t -> Netcore.Wire.Reader.t
(** A bounds-checked cursor over exactly the viewed bytes; this is how
    the dissectors consume a slice. *)
