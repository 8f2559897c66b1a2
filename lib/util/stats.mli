(** Streaming and batch statistics used by the measurement harness. *)

(** {1 Streaming moments} *)

type t
(** Welford accumulator: numerically stable running mean and variance. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the observations; 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 when fewer than two observations. *)

val stddev : t -> float
val min : t -> float
(** Smallest observation; [infinity] when empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val total : t -> float
(** Sum of the observations. *)

val confidence95 : t -> float
(** Half-width of the 95% confidence interval for the mean under a normal
    approximation (1.96 sigma / sqrt n); 0 when fewer than two
    observations. *)

(** {1 Batch helpers} *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] with [p] in [0,1]; linear interpolation between order
    statistics. Sorts a copy. @raise Invalid_argument on an empty array or
    [p] outside [0,1]. *)

val loglog_slope : (float * float) list -> float
(** Least-squares slope of [log y] against [log x] — the measured growth
    exponent of a power law. Points with non-positive coordinates are
    rejected with [Invalid_argument]; fewer than two points, or points all
    sharing one x (a vertical line has no slope), likewise. *)
