(** Transaction identifiers, unique per generator.

    The integer form doubles as the lock-table owner id. Restarted
    transactions get a fresh id (a resubmitted deadlock victim is a new
    transaction, as in §7's "resubmitted and reprocessed until it
    succeeds"). *)

type t

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Gen : sig
  type id = t
  type t

  val create : unit -> t
  val next : t -> id
  val issued : t -> int
end
