(** Counting histograms.

    Two flavours are provided: histograms over explicit, caller-supplied
    bin edges (used for frame-size breakdowns such as the paper's
    Fig. 15) and base-2 logarithmic histograms (used for the
    bpftrace-style [sys_writev] latency profiles of Fig. 14). *)

type t
(** A histogram with fixed bin edges. *)

val create : float array -> t
(** [create edges] makes a histogram whose bins are
    [(-inf, e0), [e0, e1), ..., [en, +inf)].  Edges must be strictly
    increasing and non-empty. *)

val add : t -> float -> unit
(** Add one observation of a value. *)

val bin : t -> float -> int
(** Index of the bin holding a value, in the order of {!counts}. *)

val add_bin : t -> int -> count:float -> unit
(** [add_bin t i ~count] adds a weighted count to bin [i].  A thinned
    capture sample weighs each record by 1/fraction; the profile tallies
    a sample's records per bin as integers and adds [float n *. weight]
    once per bin, the same product the flow accounting adds per flow.
    Raises [Invalid_argument] on a negative count or an index out of
    range. *)

val counts : t -> int array
(** Per-bin counts rounded to the nearest integer, including the two
    open-ended outer bins; length is [Array.length edges + 1].  Exact
    whenever only integer counts were added. *)

val total : t -> int
val ftotal : t -> float

val bin_label : t -> int -> string
(** Human-readable label for bin [i], e.g. ["[64, 128)"]. *)

val fractions : t -> float array
(** Per-bin fraction of the total (all zeros if the total is zero). *)

module Log2 : sig
  type t
  (** Histogram with bins [[2^k, 2^(k+1))] over non-negative values. *)

  val create : unit -> t
  val add : t -> ?count:int -> float -> unit

  val buckets : t -> (int * int) list
  (** [(k, count)] for every non-empty bucket, ascending in [k]; values
      in bucket [k] satisfy [2^k <= v < 2^(k+1)].  Values below 1 land
      in bucket 0. *)

  val upper_bound_sum : t -> min_exponent:int -> float
  (** Sum of [count * 2^(k+1)] over buckets with [k >= min_exponent].
      This mirrors the paper's Fig. 14 methodology: each latency is
      accounted at its bucket's upper bound, and the common (fast) cases
      below a cut-off are excluded so that tail stalls dominate. *)

end
