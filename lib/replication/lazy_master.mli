(** Lazy master replication (§5).

    Each object has a master node (round-robin: [oid mod nodes]). A user
    transaction runs as one atomic transaction against the master copies of
    the objects it updates (lock + Action_Time per action in the shared
    master lock space — which is why contention scales with [Nodes x TPS],
    equation 19). After commit, the masters fan timestamped slave updates
    out to the other replicas; a slave ignores updates older than its
    replica's timestamp, so all replicas converge to the masters' state.
    Slave application is the model's background housekeeping: it is applied
    on delivery without locks and never aborts a user transaction.

    There are no reconciliations; conflicts surface as waits and
    deadlocks, and deadlock victims are resubmitted until they commit.
    Lazy-master requires connectivity to the masters — the scheme has no
    mobility knob, which is §5's point about mobile applications. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Delay = Dangers_runtime.Delay

type master_assignment =
  | Round_robin  (** owner = oid mod nodes — the default spread *)
  | Datacycle of int
      (** one node masters every object — the Datacycle architecture
          (Herman et al.) §7 compares the two-tier scheme against *)

type t

val create :
  ?obs:Dangers_obs.Metrics.t ->
  ?profile:Profile.t ->
  ?initial_value:float ->
  ?delay:Delay.t ->
  ?master_assignment:master_assignment ->
  Params.t ->
  seed:int ->
  t
(** @raise Invalid_argument when a [Datacycle] master is out of range. *)

val base : t -> Common.base
val master_of : t -> Oid.t -> int
val submit : t -> node:int -> Op.t list -> unit
val start : t -> unit
val stop_load : t -> unit
val summary : t -> Repl_stats.summary
