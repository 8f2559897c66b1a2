(** Gifford weighted voting (SOSP'79), the availability mechanism §3 assumes
    for eager replication ("a quorum or fault tolerance scheme is used to
    improve update availability").

    Each replica holds votes; a read needs [read_quorum] votes, a write
    [write_quorum]. Safety requires [r + w > total] (read/write overlap)
    and [2w > total] (write/write overlap). *)

type t

val create : weights:int array -> read_quorum:int -> write_quorum:int -> t
(** @raise Invalid_argument on empty/negative weights, non-positive quorums,
    or quorums violating the two overlap conditions. *)

val majority : n:int -> t
(** [n] nodes, one vote each, r = w = floor(n/2) + 1. *)

val read_one_write_all : n:int -> t
(** r = 1, w = n: fast reads, writes blocked by any failure. *)

val replicas : t -> int
val read_quorum : t -> int
val write_quorum : t -> int

val can_read : t -> up:bool array -> bool
(** Whether the up-set gathers a read quorum.
    @raise Invalid_argument on a size mismatch. *)

val can_write : t -> up:bool array -> bool

val read_availability : t -> p_up:float -> float
(** Probability a read quorum exists when each replica is independently up
    with probability [p_up]. Exact (enumerates failure patterns); intended
    for small fleets (at most 20 replicas). @raise Invalid_argument on
    [p_up] outside [0,1] or more than 20 replicas. *)

val write_availability : t -> p_up:float -> float
