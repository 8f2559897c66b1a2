(** Lazy group replication (§4): update anywhere, propagate afterwards.

    A root transaction updates its local replicas under local locks and
    commits; one replica-update transaction per peer then carries
    [(oid, old timestamp, new value, new timestamp)] tuples. A receiver
    whose replica timestamp equals the update's old timestamp applies it;
    otherwise the update is {e dangerous} and goes through the configured
    {!Reconcile.rule} (counted as a reconciliation).

    Under the [Additive] rule, updates that carry deltas are always applied
    as pure delta-merges — the commutative-update discipline of §6 — so no
    update's effect is ever lost and all replicas converge to the exact
    sum; the priority rules exhibit the lost-update problem instead.

    With a [mobility] spec each node cycles between connected and
    disconnected (staggered start phases); updates involving a disconnected
    node are parked by the network and exchanged at reconnect, which is the
    equation (15)–(18) regime. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network

type t

val create :
  ?obs:Dangers_obs.Metrics.t ->
  ?profile:Profile.t ->
  ?initial_value:float ->
  ?rule:Reconcile.rule ->
  ?delay:Delay.t ->
  ?faults:Network.faults ->
  ?mobility:Connectivity.spec ->
  ?mobile_nodes:int list ->
  Params.t ->
  seed:int ->
  t
(** Defaults: timestamp-priority rule, zero message delay (the model's
    assumption), always-connected nodes. When [mobility] is given it
    applies to [mobile_nodes] (default: every node, staggered phases);
    restricting it to a subset models mobile nodes syncing against an
    otherwise-connected network (one {!Connectivity.fleet}).
    @raise Invalid_argument on an invalid [mobility] spec. *)

val base : t -> Common.base
val rule : t -> Reconcile.rule

val submit : t -> node:int -> Op.t list -> unit
(** Inject one root transaction at [node]. *)

val start : t -> unit
val stop_load : t -> unit
val summary : t -> Repl_stats.summary

val expected_sum : t -> Oid.t -> float
(** For increment workloads: [initial_value] plus every committed
    increment's delta — the value every replica must converge to when no
    update is lost. *)

val divergence : t -> int
(** Number of (replica, object) pairs whose value differs from node 0's
    replica — the system-delusion gauge. Zero after a drain under any
    converging rule; grows without bound under [Reconcile.Ignore]. *)

val is_connected : t -> node:int -> bool

val set_node_connected : t -> node:int -> bool -> unit
(** Drive a node's connectivity directly — the fault injector's crash /
    restart lever (a [mobility] spec does the same through a schedule). *)

val flush_node : t -> node:int -> unit
(** Retry the node's partition-parked messages (see {!Network.flush_node}). *)

val force_sync : t -> unit
(** Testing/diagnosis helper: reconnect everyone and drain the engine
    (generators must be stopped), so all parked updates apply. *)
