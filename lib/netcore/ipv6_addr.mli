(** IPv6 addresses, stored as two 64-bit halves. *)

type t

val make : int64 -> int64 -> t
(** [make hi lo] from the high and low 64 bits. *)

val halves : t -> int64 * int64

val of_string : string -> t
(** Parses full or [::]-compressed colon-hex notation. *)

val to_string : t -> string
(** Canonical lower-case form with the longest zero run compressed. *)

val random_in : Rng.t -> prefix:t -> prefix_len:int -> t
(** A random address inside the given prefix (prefix length <= 64 keeps
    the low half fully random). *)
