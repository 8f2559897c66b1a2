(** Poisson transaction arrivals.

    Each node originates TPS transactions per second (Table 2); arrivals are
    a Poisson process, so inter-arrival times are exponential with mean
    1/TPS. One generator per node, each with its own split of the master
    RNG so streams are independent. *)

type t

val start :
  clock:Dangers_runtime.Clock.t ->
  rng:Dangers_util.Rng.t ->
  tps:float ->
  profile:Profile.t ->
  db_size:int ->
  submit:(Dangers_txn.Op.t list -> unit) ->
  t
(** Begin generating; the first arrival is one inter-arrival time from now.
    The profile's {!Profile.sampler} is built here, once, and every arrival
    draws from it.
    @raise Invalid_argument if [tps <= 0] or {!Profile.sampler} rejects
    [profile] at [db_size]. *)

val stop : t -> unit
(** No further arrivals; in-flight transactions are unaffected. *)

val generated : t -> int
(** Transactions submitted so far. *)
