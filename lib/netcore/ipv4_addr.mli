(** IPv4 addresses. *)

type t
(** An immutable IPv4 address. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t

val of_string : string -> t
(** Parses dotted-quad notation; raises [Invalid_argument] otherwise. *)

val to_string : t -> string

val random_in : Rng.t -> prefix:t -> prefix_len:int -> t
(** A random host address inside the given prefix. *)

val equal : t -> t -> bool
