(** Non-transactional convergence schemes surveyed in §6.

    These are pure state-machine models (no simulation engine): replicas
    that exchange state pairwise and converge without serializability.
    {!Notes} reproduces Lotus Notes' two update forms — timestamped append
    and timestamped replace — and quantifies the lost-update problem via
    causal histories. {!Access} reproduces Microsoft Access "Wingman"
    record replication: a version vector per record, most recent update
    wins each pairwise exchange, rejected (concurrent) updates reported. *)

module Timestamp = Dangers_storage.Timestamp
module Version_vector = Dangers_storage.Version_vector
module Oid = Dangers_storage.Oid

module Notes : sig
  type t
  (** One replica of a Notes file: an append-set plus replaceable
      registers. *)

  val create : site:int -> t

  val append : t -> string -> unit
  (** Add a timestamped note; appends commute and are never lost. *)

  val replace : t -> key:string -> value:float -> unit
  (** Timestamped replace of a register: on exchange the newest timestamp
      wins and concurrent updates are silently discarded — the lost-update
      problem. *)

  val notes : t -> string list
  (** Note bodies in timestamp order. *)

  val exchange : t -> t -> unit
  (** Bidirectional pairwise sync: unions the append-sets, resolves each
      register by latest-timestamp, and merges causal bookkeeping. *)

  val converged : t list -> bool
  (** All replicas have identical notes and registers. *)

  val lost_updates : t list -> int
  (** Replace-updates whose effect survives nowhere: updates outside the
      causal past of each register's current winner. Meaningful after the
      replicas have fully exchanged (e.g. [converged] holds); appends are
      never counted. *)

  val updates_issued : t list -> int
  (** Total replace-updates the fleet performed. *)
end

module Access : sig
  type t
  (** One replica of a record database with a version vector per record. *)

  val create : site:int -> db_size:int -> t

  val update : t -> Oid.t -> float -> unit
  (** Local record update: bumps the record's version vector at this
      site. *)

  val read : t -> Oid.t -> float
  val vector : t -> Oid.t -> Version_vector.t

  val exchange : t -> t -> int
  (** Pairwise sync. Causally ordered versions move forward silently;
      concurrent versions are a conflict: the most recent update (by
      timestamp) wins, the loser is rejected-and-reported. Returns the
      number of conflicts reported in this exchange. *)

  val converged : t list -> bool
  val conflicts_reported : t -> int
  (** Total conflicts this replica has reported across exchanges. *)
end
