(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele et al., OOPSLA 2014): fast, passes
    BigCrush, and supports cheap stream splitting, which lets each
    simulated component own an independent stream derived from its
    parent. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t].  Used to give sub-components their own streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal sample (Box-Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal sample: [exp (gaussian mu sigma)]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto sample with minimum value [scale] and tail index [shape]. *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count (Knuth's method for small means, normal
    approximation above 64). *)

val choice : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val weighted : t -> (float * 'a) list -> 'a
(** [weighted t items] picks an element with probability proportional
    to its weight.  Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
