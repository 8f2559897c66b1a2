(** The two-tier replication scheme (§7) — the paper's solution.

    Topology: [base_nodes] always-connected base nodes plus
    [params.nodes - base_nodes] mobile nodes that cycle between connected
    and disconnected on the Table 2 schedule. Objects are mastered
    round-robin at base nodes; optionally each mobile masters a block of
    objects of its own ([mobile_owned_per_node]).

    Execution:
    - Base nodes (and connected mobiles) run ordinary base transactions:
      lazy-master execution against the object masters — locks and
      Action_Time per action in the base lock space, lazy slave updates
      fanned out after commit. Deadlock victims are resubmitted until they
      commit, so base behaviour (and its deadlock rate) is equation (19)'s.
    - A disconnected mobile runs tentative transactions against its
      tentative versions and queues them.
    - On reconnect the mobile (1) discards tentative versions, (2) sends
      updates for objects it masters, (3) has its host base node re-execute
      every queued tentative transaction, in local commit order, as a base
      transaction guarded by the transaction's acceptance criterion —
      rejects return a diagnostic — and (4–5) refreshes its replica from
      the host, converging with the base state.

    Tentative transactions must respect the scope rule: they may touch only
    objects mastered at base nodes or at the originating mobile; violations
    are counted and refused at submission.

    Metrics: [Repl_stats.commits]/[waits]/[deadlocks]/[restarts] cover base
    transactions; ["tentative_commits"], ["tentative_accepted"],
    ["tentative_rejected"] (mirrored into [Repl_stats.reconciliations]),
    ["scope_violations"], and ["syncs"] cover the mobile protocol. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Fstore = Dangers_storage.Store.Fstore
module Repl_stats = Dangers_replication.Repl_stats
module Common = Dangers_replication.Common

type t

val create :
  ?obs:Dangers_obs.Metrics.t ->
  ?clock:Dangers_runtime.Clock.t ->
  ?profile:Profile.t ->
  ?initial_value:float ->
  ?acceptance:Acceptance.t ->
  ?delay:Delay.t ->
  ?faults:Dangers_net.Network.faults ->
  ?mobility:Connectivity.spec ->
  ?mobile_owned_per_node:int ->
  ?unsafe_skip_acceptance:bool ->
  base_nodes:int ->
  Params.t ->
  seed:int ->
  t
(** Defaults: [Always] acceptance, zero delay, the Table 2 day-cycle
    mobility derived from [params] (fixed phases, staggered starts), no
    mobile-mastered objects, and a fresh virtual-time engine as the clock
    — pass [Dangers_runtime.Live_clock.(create Wall)] to run the identical
    scheme code on wall time (the serving path). @raise Invalid_argument
    if [base_nodes] is not in [1, params.nodes] or mobile-owned blocks
    exceed the database.

    [faults] plugs a fault injector into the slave-update network.

    [unsafe_skip_acceptance] (default false) is a DELIBERATE BUG for
    fuzzer self-validation: the base skips the acceptance re-check and
    blindly commits the mobile's tentative results, producing exactly the
    base-tier delusion §7 prevents. {!base_history_serializable} must then
    fail under concurrent load; never enable it outside tests. *)

val base : t -> Common.base
val base_count : t -> int
val owner_of : t -> Oid.t -> int
val mobile : t -> node:int -> Mobile_node.t
(** @raise Invalid_argument for a base-node id. *)

val submit : t -> node:int -> Op.t list -> unit
(** What the generators call: routes to a direct base transaction or a
    tentative transaction depending on the node's connectivity. *)

type submit_result =
  [ `Committed of (Oid.t * float) list
  | `Rejected of string
  | `Tentative
  | `Scope_violation ]

val submit_with :
  t -> node:int -> on_result:(submit_result -> unit) -> Op.t list -> unit
(** {!submit} with the outcome reported: [`Tentative] fires immediately
    (the transaction is queued on the mobile), the base outcomes fire
    when the base transaction finishes — that asynchrony is what lets a
    live server answer each client request exactly once. *)

val on_sync : t -> (mobile:int -> unit) -> unit
(** Subscribe to sync completions: fires after protocol step 4 (replica
    refresh) each time a mobile finishes replaying its queue, and at once
    when a connected mobile syncs with nothing queued and nothing to
    refresh (that empty sync is not counted in ["syncs"]). [mobile] is
    the mobile index, i.e. node id minus {!base_count}. *)

val master_value : t -> Oid.t -> float
(** Read an object's current master copy (wherever it is mastered) —
    the live protocol's query path. *)

val run_base_transaction :
  t -> ?acceptance:Acceptance.t ->
  ?tentative_results:(Oid.t * float) list ->
  ops:Op.t list ->
  on_done:([ `Committed of (Oid.t * float) list | `Rejected of string ] -> unit) ->
  unit ->
  unit
(** Run one base transaction explicitly (examples and tests use this; the
    scheme itself uses it for everything). With an acceptance criterion and
    recorded tentative results it is a replay; committed results are the
    new master values. *)

val start : t -> unit
val stop_load : t -> unit
val summary : t -> Repl_stats.summary

val tentative_accepted : t -> int
val tentative_rejected : t -> int
val rejection_log : t -> (Tentative.t * string) list
(** Every rejected tentative transaction with its §7 diagnostic, oldest
    first. *)

val set_node_connected : t -> node:int -> bool -> unit
(** Drive one node's connectivity directly (the fault injector's crash /
    restart lever). Disconnecting a mobile sends it tentative; reconnecting
    triggers its sync, like a schedule toggle would. *)

val flush_node : t -> node:int -> unit
(** Retry the node's partition-parked slave updates
    (see {!Dangers_net.Network.flush_node}). *)

val base_history_serializable : t -> bool
(** §7 property 2, made executable: replaying every committed base
    transaction in commit order on a fresh database reproduces the master
    state exactly (single-copy serializability of the base tier). Check
    after a quiesce. The replay is applied as each transaction commits,
    so the history held costs O(db_size), not one entry per commit. *)

val converged : t -> bool
(** All base replicas identical and every mobile's stores equal to them.
    Meaningful after {!quiesce_and_sync}. *)

val quiesce_and_sync : t -> unit
(** [stop_load], stop the mobility schedules and reconnect every mobile
    (triggering their syncs), then drain the engine — after this
    [converged] must hold; used by experiments to verify the paper's
    "master database is always converged" claim. *)
