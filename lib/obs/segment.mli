(** Sorted binary segment files: the one storage layer under the flow
    store ([.pwfs]) and the telemetry store ([.pwts]).

    A segment is a 10-byte header — 4-byte magic, u16 version (1), u32
    record count, little-endian — followed by the records in the
    schema's sort order.  {!write} commits a segment in one step: it
    writes the whole file to [<path>.tmp] and renames it to [<path>],
    so a final name only ever holds a complete segment, and a writer
    killed mid-write leaves at most a temporary, which {!in_dir} never
    lists and {!remove_uncommitted} deletes.

    A reader decodes from a 4 KiB block of the file that it refills
    with one channel read per block, and grows the block only for a
    string longer than it (at most 65,535 bytes): an open reader holds
    one block and one decoded record, whatever the segment's size.

    Readers validate everything they touch and raise {!Corrupt} with
    the file name in the message: short header, bad magic, version,
    implausible count, truncation (naming record [i/n]), trailing
    garbage, sortedness, and each record's own checks.  A header that
    holds the [0xFFFFFFFF] count an older writer streamed behind is an
    ["unsealed segment"]. *)

exception Corrupt of string
(** A segment failed validation; the message starts with the file path. *)

(** {1 Schemas} *)

type cursor
(** The decoder's view of the record being read: the reader's block. *)

val field : cursor -> int -> string -> Bytes.t
(** [field c n what] copies the record's next [n] bytes out of the
    block into a buffer that the next [field] reuses.  [what] names the
    field in the truncation message. *)

val str : cursor -> string -> string
(** A u16-length-prefixed string, decoded from the block. *)

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
}

(** {1 Writing} *)

val write : 'a schema -> string -> 'a list -> int
(** [write schema path records] sorts the records (stably), writes them
    to [path ^ ".tmp"] and renames that to [path]; returns the file size
    in bytes.  When the encoder raises, the temporary is removed and the
    exception re-raised. *)

val mkdir_p : string -> unit

(** {1 Reading} *)

val read_all : 'a schema -> string -> ('a list, string) result
(** Every record, or the {!Corrupt} message. *)

val scan : 'a schema -> string list -> ('a -> unit) -> int
(** Stream every record of the segments merged in schema order; equal
    records come out in the order of their segments in the list.
    Returns the record count; [scan schema [ path ] ignore] validates
    one segment holding one block and one record.  Every reader is
    closed on return, including when a segment fails to open.
    @raise Corrupt on a malformed segment. *)

val in_dir : 'a schema -> string -> string list
(** The committed segment paths under a directory (names ending in the
    schema's suffix), sorted by name; [[]] when the directory does not
    exist. *)

val remove_uncommitted : 'a schema -> string -> int
(** Delete the temporaries a killed {!write} left under a directory;
    returns how many. *)
