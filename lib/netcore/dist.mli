(** Statistical distributions and summary statistics.

    Distributions are first-class values so that workload models can be
    described declaratively (e.g. in {!Traffic.Workload}) and sampled
    with any {!Rng.t}. *)

type t =
  | Constant of float
  | Uniform of float * float  (** inclusive lower, exclusive upper *)
  | Exponential of float  (** mean *)
  | Gaussian of float * float  (** mu, sigma *)
  | Lognormal of float * float  (** mu, sigma of underlying normal *)
  | Pareto of float * float  (** shape, scale *)
  | Empirical of (float * float) array
      (** [(weight, value)] pairs; samples a value with probability
          proportional to its weight. *)
  | Mixture of (float * t) list  (** weighted mixture of distributions *)
  | Shifted of float * t  (** adds an offset to every sample *)
  | Clamped of float * float * t  (** clamps samples into [lo, hi] *)

val sample : t -> Rng.t -> float
(** Draw one sample. *)

val sample_int : t -> Rng.t -> int
(** Draw one sample rounded to the nearest integer. *)

val mean : t -> float option
(** Exact mean when it exists analytically ([None] for [Clamped] and for
    Pareto with shape <= 1). *)

module Zipf : sig
  type sampler

  val create : n:int -> s:float -> sampler
  (** Zipf distribution over ranks [1..n] with exponent [s]. *)

  val sample : sampler -> Rng.t -> int
  (** A rank in [1..n]; rank 1 is the most likely. *)
end

module Summary : sig
  type stats = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  val of_array : float array -> stats
  (** Summary statistics of a non-empty array (the array is sorted as a
      side effect of percentile computation on a copy). *)

end
