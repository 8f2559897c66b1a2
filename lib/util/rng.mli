(** Deterministic, splittable pseudo-random number generator.

    The simulator must be reproducible: the same seed yields the same event
    trace, byte for byte. The standard-library [Random] module offers no
    stable split, so we implement SplitMix64 (Steele, Lea & Flood, OOPSLA'14)
    directly. Each logical stream (per node, per generator) receives its own
    split so that adding a consumer never perturbs the draws of another. *)

type t
(** Mutable generator state. Not thread-safe; the simulator is
    single-threaded by design. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. The derived
    stream is statistically independent of the parent's subsequent
    output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). [bound] must be finite
    and positive. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for Poisson
    arrival inter-times. [mean] must be positive. *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count with the given mean (Knuth's method below mean
    30, normal approximation above). *)

(** Zipf-distributed ranks over [0, n), rank 0 hottest. Used only by the
    hotspot workload extension; the paper's model is uniform. *)
module Zipf : sig
  type rng := t

  type t
  (** An immutable sampler for one [(n, theta)]; safe to share. *)

  val create : n:int -> theta:float -> t
  (** [create ~n ~theta] computes, once, the constants of the closed-form
      inverse of the approximate Zipf CDF given by Gray et al. (SIGMOD'94,
      "Quickly generating billion-record synthetic databases"): the
      normalisers zeta(2) and zeta(n) = sum of 1/i^theta over i in [1, n],
      and the exponents that invert the CDF. [theta = 0] is uniform.
      The closed form divides by [1 - theta], so [theta = 1] is rejected.
      @raise Invalid_argument if [n <= 0], [theta < 0] (or NaN) or
      [theta = 1]. *)

  val draw : t -> rng -> int
  (** One rank in O(1): consumes exactly one [float rng 1.0], or one
      [int rng n] when [theta = 0]. *)
end

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** [sample_without_replacement t ~n ~k] draws [k] distinct integers from
    [0, n), in draw order. @raise Invalid_argument if [k > n] or [k < 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
