(** Transaction profiles: what a generated transaction looks like.

    The model fixes the transaction shape (Actions updates on uniformly
    chosen distinct objects); the profile adds the semantic knobs the model
    abstracts away — whether updates are value assignments or commutative
    increments (§6), and optionally a Zipf hotspot (the model assumes
    uniform access; the hotspot is an ablation showing contention gets
    worse). *)

type update_kind =
  | Assigns  (** record-value updates: "change account from $200 to $150" *)
  | Increments  (** transformations: "debit the account by $50" — commute *)
  | Mixed of float
      (** fraction of increments, in [0,1]; the rest are assigns *)

type access =
  | Uniform  (** the model's equiprobable access *)
  | Zipf of float  (** hotspot skew theta > 0, theta <> 1 *)
  | Tpcb of { branches : int; tellers_per_branch : int }
      (** TPC-B-style hierarchy (the benchmarks the paper cites when it
          scales DB_Size with the fleet): the object space is laid out as
          [branches | tellers | accounts]; each transaction picks a uniform
          account and touches its teller and branch too. Branch rows are
          the built-in hotspot: the effective database for branch conflicts
          is [branches], not [db_size]. Requires [actions = 3] and a
          database large enough to hold the three regions. *)

type t = {
  actions : int;  (** updates per transaction *)
  reads : int;
      (** read actions per transaction. Table 2's model ignores reads ("Reads
          are ignored"); they exist for the serializability extension — S
          locks locally (eager, lazy-group) or read-lock RPCs to masters
          (lazy-master, §5) *)
  update_kind : update_kind;
  access : access;
  magnitude : float;  (** |delta| bound for increments, value bound for assigns *)
}

val create :
  ?update_kind:update_kind -> ?access:access -> ?magnitude:float -> ?reads:int ->
  actions:int -> unit -> t
(** Defaults: [Assigns], [Uniform], magnitude 100, no reads.
    @raise Invalid_argument on a non-positive action count or magnitude, a
    negative read count, a [Mixed] fraction outside [0,1], a
    non-positive Zipf theta or a Zipf theta of 1 (the closed-form sampler
    divides by [1 - theta]). *)

val of_params : Dangers_analytic.Params.t -> t
(** The model's profile: [actions] from Table 2, assignments, uniform. *)

type sampler
(** A profile bound to a database size, with its checks run and its key
    distribution built (for [Zipf], the {!Dangers_util.Rng.Zipf} sampler).
    Immutable, so one sampler is safe to share between generators. *)

val sampler : t -> db_size:int -> sampler
(** Validates once what every transaction needs, so {!draw} does not.
    @raise Invalid_argument if [actions + reads > db_size], or under [Tpcb]
    if the regions do not fit with an account to update and [reads] other
    accounts. *)

val draw : sampler -> Dangers_util.Rng.t -> Dangers_txn.Op.t list
(** One transaction's operations: [actions] updates and [reads] reads on
    distinct objects, in shuffled order. Under [Tpcb] the three updates are
    account, teller, branch, and the reads follow, drawn uniformly from the
    other accounts. *)

val tpcb_regions :
  branches:int -> tellers_per_branch:int -> db_size:int ->
  [ `Branch of int | `Teller of int | `Account of int ] -> Dangers_storage.Oid.t
(** Object-id layout helper for the [Tpcb] access pattern.
    @raise Invalid_argument when the index is outside its region. *)

val commutative : t -> bool
(** Whether every generated transaction commutes with every other
    ([Increments] only). *)
