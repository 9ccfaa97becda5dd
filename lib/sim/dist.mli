(** Random-variate samplers over a {!Rng.t} stream.

    All samplers take the generator explicitly so that call sites make
    their consumption of randomness visible and reproducible. *)

val bernoulli : Rng.t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p] ([p] clamped to
    [\[0, 1\]]). *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].  Requires [lo <= hi]. *)

val uniform_int : Rng.t -> lo:int -> hi:int -> int
(** Uniform integer in the inclusive range [\[lo, hi\]].  Requires
    [lo <= hi]. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate] (mean [1 /. rate]).  [rate] must be
    positive. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Gaussian via the Box–Muller transform. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** Log-normal: [exp] of a Gaussian with parameters [mu], [sigma]. *)

val pareto : Rng.t -> scale:float -> shape:float -> float
(** Pareto with minimum [scale] and tail index [shape]; both positive. *)

val geometric : Rng.t -> p:float -> int
(** Number of failures before the first success, [p] in [(0, 1\]]. *)

val zipf : n:int -> s:float -> Rng.t -> int
(** [zipf ~n ~s] builds a sampler over ranks [1..n] with exponent [s]
    (probability of rank [k] proportional to [1 /. k ** s]).  The table
    is computed once; apply the result to a generator per draw.
    Bucket selection follows the shared tie-break rule documented at
    {!module-Internal.val-first_over}. *)

val categorical : weights:float array -> Rng.t -> int
(** [categorical ~weights] builds a sampler returning index [i] with
    probability proportional to [weights.(i)].  Weights must be
    non-negative with a positive sum.  Bucket selection follows the
    shared tie-break rule documented at
    {!module-Internal.val-first_over}. *)

(** Internals exposed for property tests only — not a stable API. *)
module Internal : sig
  val first_over : float array -> float -> int
  (** [first_over cdf u] is the index of the first bucket whose
      cumulative weight {e strictly} exceeds [u], clamped to the last
      index.  This is the single tie-break rule for every table-based
      sampler in this module: a [u] exactly on a bucket edge
      [cdf.(i)] selects bucket [i + 1] (half-open intervals
      [\[cdf.(i-1), cdf.(i))]), and zero-weight buckets — whose cdf
      entry equals their predecessor's — are never selected.
      Requires a non-empty, non-decreasing [cdf]. *)

  val guided_first_over : float array -> float -> int
  (** [guided_first_over cdf] builds the guide table {!zipf} and
      {!categorical} draw through; the result maps [u] to exactly
      [first_over cdf u], searching one guide bucket instead of the
      whole CDF.  Same requirements as {!first_over}. *)
end
