(** Per-node versioned object store.

    Each node replicates all [DB_Size] objects (Table 2). Every object
    carries the timestamp of its most recent update, which is all the lazy
    schemes need to detect dangerous updates (§4) and discard stale ones
    (§5). The store is functorized over the value type: the simulator uses
    the [float] instance below; richer example applications can instantiate
    their own.

    The layout is columnar: one array of values and one of
    {!Timestamp.t}, an immediate [int]. With the [float] instance both
    are flat, so a replica of [DB_Size] objects is two heap blocks with no
    per-object pointer for the major GC to mark or sweep, and neither a
    write nor a stamp read allocates. *)

module type VALUE = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (Value : VALUE) : sig
  type value = Value.t
  type t

  val create : db_size:int -> init:value -> t
  (** Every object starts at [init], stamped {!Timestamp.zero}.
      @raise Invalid_argument if [db_size <= 0]. *)

  val db_size : t -> int

  val read : t -> Oid.t -> value
  val stamp : t -> Oid.t -> Timestamp.t

  val write : t -> Oid.t -> value -> Timestamp.t -> unit
  (** Unconditional overwrite — for the owning node's committed updates. *)

  val on_write : t -> (Oid.t -> value -> Timestamp.t -> unit) -> unit
  (** Register an observer fired after every state change ([write], a
      successful [apply_if_newer], and each object of an
      [overwrite_from]). The fault-injection recovery journal uses this to
      capture a node's durable write history; a store without observers
      pays nothing. Observers do not survive [copy]. *)

  val apply_if_newer : t -> Oid.t -> value -> Timestamp.t ->
    [ `Applied | `Stale ]
  (** The lazy-master slave rule (Thomas write rule): apply only when the
      update's timestamp is newer than the replica's. *)

  val iter : t -> (Oid.t -> value -> Timestamp.t -> unit) -> unit
  val fold : t -> init:'acc -> f:('acc -> Oid.t -> value -> Timestamp.t -> 'acc) -> 'acc

  val content_equal : t -> t -> bool
  (** Same values and timestamps at every object — the convergence test. *)

  val divergent_oids : t -> t -> Oid.t list
  (** Objects at which two replicas disagree (value or timestamp); empty iff
      [content_equal]. @raise Invalid_argument on stores of different
      sizes. *)

  val copy : t -> t

  val overwrite_from : t -> src:t -> unit
  (** Replace all content with [src]'s — a mobile node refreshing its replica
      from a base node. @raise Invalid_argument on different sizes. *)
end

module Float_value : VALUE with type t = float

module Fstore : module type of Make (Float_value)
(** The store instance used throughout the simulator: objects are numeric
    values (balances, quantities, quotes). *)
