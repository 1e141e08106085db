(** 48-bit Ethernet MAC addresses. *)

type t
(** An immutable MAC address. *)

val of_int64 : int64 -> t
(** Uses the low 48 bits. *)

val to_int64 : t -> int64

val random : Rng.t -> t
(** A random, locally-administered unicast address. *)
