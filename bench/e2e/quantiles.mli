(** Order statistics for aggregating benchmark repetitions. *)

val median : float list -> float
(** @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by Python's [statistics.quantiles(xs, n=4)] default
    ("exclusive") method; a single value is its own quartiles.
    @raise Invalid_argument on an empty list. *)

val spread : float list -> float
(** Interquartile distance as a share of the median; 0 when the median
    is 0. *)

val percentile : float list -> p:float -> float
(** {!Dangers_util.Stats.percentile}: linear interpolation, [p] in
    [0, 1]. @raise Invalid_argument on an empty list. *)
