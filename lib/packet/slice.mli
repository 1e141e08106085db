(** An offset/length view into a shared immutable capture buffer.

    The indexed decode path never copies packet payloads: the pcap and
    pcapng readers produce record indexes ({!Pcap.index_entry}), each of
    which resolves to a slice of the single capture buffer, and the
    dissector reads a slice's headers where they sit in that buffer,
    bounded by the slice's window ({!buffer}, {!offset}, {!length}), so
    it can only see its own record's bytes.

    The underlying buffer must not be mutated while slices over it are
    live (capture buffers are write-once). *)

type t

val make : bytes -> off:int -> len:int -> t
(** View of [len] bytes of the buffer starting at [off].  Raises
    [Invalid_argument] when the window falls outside the buffer. *)

val buffer : t -> bytes
(** The viewed buffer itself, not a copy. *)

val offset : t -> int
(** Where the view starts in {!buffer}. *)

val length : t -> int
