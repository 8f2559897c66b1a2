(** Shared implementation of the two eager schemes (§3).

    An eager transaction updates every replica of every object it touches
    inside the one originating transaction, serially — the paper's model of
    message-handling cost — so it takes [Actions x Nodes] lock-steps of
    Action_Time each. Locking is global (the simulator plays a perfect
    distributed lock manager / waits-for graph); resources are
    (node, object) pairs. Deadlock victims are resubmitted after a short
    backoff until they commit.

    The two public schemes differ only in the order replicas are visited
    for each action: group starts at the originating node's copy, master at
    the object owner's copy (§3: "updates go to this node first and are then
    applied to the replicas"). *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

type ownership =
  | Group  (** visit origin's replica first *)
  | Master  (** visit the object master's replica first; owner = oid mod nodes *)

type t

val create :
  ?obs:Dangers_obs.Metrics.t ->
  ?profile:Profile.t -> ?initial_value:float ->
  ?delay:Dangers_runtime.Delay.t ->
  ?on_commit:(node:int -> Op.t list -> unit) ->
  ownership -> Params.t -> seed:int -> t
(** [delay] charges each *remote* update step its sampled message delay on
    top of Action_Time — the paper's "if message delays were added ...
    transactions would hold resources much longer" ablation. Default
    [Zero], the model's assumption.

    [on_commit] observes every committed transaction in commit order — the
    serial history witness the fault fuzzer replays to check one-copy
    serializability. *)

val base : t -> Common.base
val ownership : t -> ownership
val master_of : t -> Oid.t -> int
(** Round-robin object ownership (meaningful under [Master]). *)

val submit : t -> node:int -> Op.t list -> unit
(** Inject one user transaction originating at [node]; it will be retried
    through deadlocks until it commits. *)

val start : t -> unit
(** Attach the Poisson generators (one per node). *)

val stop_load : t -> unit

val summary : t -> Repl_stats.summary
