(** Sorted, sealed binary segment files: the one storage layer under the
    flow store ([.pwfs]) and the telemetry store ([.pwts]).

    A segment is a 10-byte header — 4-byte magic, u16 version (1), u32
    record count, little-endian — followed by the records in the
    schema's sort order.  {!write} streams the records behind the
    [0xFFFFFFFF] {e unsealed} marker and seals the segment by
    back-patching the real count, so a writer killed mid-write leaves a
    segment a reader can tell from a sealed one.

    Readers validate everything they touch and raise {!Corrupt} with
    the file name in the message: short header, bad magic, version,
    implausible count, truncation (naming record [i/n]), trailing
    garbage, sortedness, and each record's own checks.  A schema that
    sets [recover_unsealed] reads an unsealed segment's complete record
    prefix and drops a torn final record; any other schema rejects an
    unsealed segment. *)

exception Corrupt of string
(** A segment failed validation; the message starts with the file path. *)

(** {1 Schemas} *)

type cursor
(** The decoder's view of the record being read. *)

val field : cursor -> int -> string -> Bytes.t
(** [field c n what] reads the record's next [n] bytes into a buffer
    that the next read reuses.  [what] names the field in the
    truncation message. *)

val str : cursor -> string -> string
(** A u16-length-prefixed string. *)

val invalid : cursor -> ('a, unit, string, 'b) format4 -> 'a
(** Reject the record being read: raises {!Corrupt} with the message
    and ["at record i"] appended. *)

val add_str : Buffer.t -> string -> unit
(** Encode a u16-length-prefixed string.
    @raise Invalid_argument when longer than 65535 bytes. *)

type 'a schema = {
  magic : string;  (** 4 bytes *)
  suffix : string;  (** file suffix, e.g. [".pwfs"] *)
  compare : 'a -> 'a -> int;  (** the records' sort order *)
  encode : Buffer.t -> 'a -> unit;
  decode : cursor -> 'a;
      (** Reads one record and makes its own checks, failing through
          {!invalid}. *)
  ties : bool;  (** adjacent records may compare equal *)
  recover_unsealed : bool;
      (** read an unsealed segment's complete prefix instead of
          rejecting it *)
}

(** {1 Writing} *)

val write : 'a schema -> string -> 'a list -> int
(** [write schema path records] sorts the records (stably), streams
    them into [path] and seals it; returns the file size in bytes. *)

val mkdir_p : string -> unit

(** {1 Reading} *)

type 'a reader
(** A streaming cursor over one segment; holds one record of state. *)

val open_reader : 'a schema -> string -> 'a reader
(** Validates the header.  @raise Corrupt on a malformed header. *)

val sealed : 'a reader -> bool

val next : 'a reader -> 'a option
(** The next record, [None] at the end (the reader is then closed).
    @raise Corrupt on a malformed record, an order violation,
    truncation of a sealed segment or trailing bytes. *)

val torn : 'a reader -> bool
(** An unsealed segment ended inside a record, which was dropped. *)

val close : 'a reader -> unit

val read_all : 'a schema -> string -> ('a list * bool, string) result
(** Every record plus the {!torn} flag, or the {!Corrupt} message. *)

val scan : 'a schema -> string list -> ('a -> unit) -> int
(** Stream every record of the segments merged in schema order; equal
    records come out in the order of their segments in the list.
    Returns the record count.  Every reader is closed on return,
    including when a segment fails to open.
    @raise Corrupt as {!open_reader} and {!next}. *)

val in_dir : 'a schema -> string -> string list
(** The segment paths under a directory, sorted by name; [[]] when the
    directory does not exist. *)
