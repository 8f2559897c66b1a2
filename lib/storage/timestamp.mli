(** Update timestamps for lazy replication.

    The paper's lazy-group detection rule compares "the local replica's
    timestamp and the update's old timestamp" (§4); lazy-master slaves ignore
    updates older than the record timestamp (§5). Both need a total order
    that respects causality at the issuing node, so we use Lamport clocks:
    a counter advanced on every local update and on every timestamp
    witnessed, tie-broken by node id.

    A timestamp is one immediate [int]: the counter in the high bits and
    [node + 1] in the low {!node_bits}, so that [Int.compare] on the packed
    words is the lexicographic order on [(counter, node)]. Ticking a clock,
    reading a store's stamp and carrying a stamp in an update allocate
    nothing, and a store's stamp column is a flat [int] array. *)

type t = private int

val node_bits : int
(** Width of the node field. *)

val node_bound : int
(** Node ids lie in [[0, node_bound)]; {!zero} alone carries node [-1]. *)

val make : counter:int -> node:int -> t
(** @raise Invalid_argument unless [0 <= counter] (and the counter fits
    the remaining bits) and [-1 <= node < node_bound]. *)

val counter : t -> int
val node : t -> int

val zero : t
(** Initial timestamp of every replica of every object: counter 0, node
    [-1], older than every timestamp a clock produces. *)

val compare : t -> t -> int
(** Lexicographic on [(counter, node)]: a total order. *)

val equal : t -> t -> bool
val newer : t -> than:t -> bool
val pp : Format.formatter -> t -> unit

(** Per-node Lamport clock. *)
module Clock : sig
  type ts = t
  type t

  val create : node:int -> t
  (** @raise Invalid_argument on a negative node id or one at or above
      {!node_bound}. *)

  val node : t -> int

  val tick : t -> ts
  (** Advance and return a timestamp strictly newer than every timestamp this
      clock has produced or witnessed. *)

  val witness : t -> ts -> unit
  (** Fold a received timestamp into the clock so later [tick]s sort after
      it. *)
end
