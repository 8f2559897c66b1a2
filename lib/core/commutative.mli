(** Commutative transaction design (§6–§7).

    "In certain cases transactions can be designed to commute, so that the
    database ends up in the same state no matter what transaction execution
    order is chosen." This module is that design vocabulary: constructors
    for commutative business transactions and a checker that a transaction
    set really is order-insensitive. *)

module Oid = Dangers_storage.Oid
module Op = Dangers_txn.Op
module Rng = Dangers_util.Rng

(** {1 Constructors} *)

val deposit : Oid.t -> float -> Op.t list
(** Credit an account: a single increment. @raise Invalid_argument on a
    negative amount. *)

val debit : Oid.t -> float -> Op.t list
(** Debit an account; commutes, so it may drive the balance negative — that
    is what the [Non_negative] acceptance criterion is for. *)

val transfer : from_:Oid.t -> to_:Oid.t -> float -> Op.t list
(** Debit one account, credit another, atomically; commutes with other
    transfers. @raise Invalid_argument on a negative amount or equal
    accounts. *)

val adjust_stock : Oid.t -> float -> Op.t list
(** Inventory delta (receipts positive, shipments negative). *)

(** {1 Checks} *)

val pairwise_commute : Op.t list list -> bool
(** Every pair of transactions in the set commutes. *)

val converges :
  ?trials:int -> rng:Rng.t -> db_size:int -> init:float ->
  Op.t list list -> bool
(** Empirical order-insensitivity: apply the whole transaction list to a
    fresh database in [trials] random orders (default 8) and compare final
    states. [pairwise_commute] implies [converges]; the converse is the
    empirical check used in tests. *)
