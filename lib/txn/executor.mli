(** Event-driven transaction executor.

    Runs a transaction as the model prescribes: a sequence of actions, each
    of which first acquires a lock on its resource and then occupies
    Action_Time of simulated time. Waits stretch the transaction; a request
    that closes a waits-for cycle kills it (victim = requester, matching the
    derivation of equation (3)).

    The executor is scheme-agnostic: callers provide the step list (a
    single-node transaction has [Actions] steps; an eager-replicated one has
    [Actions x Nodes] steps over per-node resources) and the commit/deadlock
    continuations.

    Lazy-group turns every commit into Nodes - 1 replica transactions, so
    the cost of a step is paid Nodes times over. {!run} therefore builds
    one set of closures per transaction: the steps left live in one
    mutable cell, the same closure is the lock's grant callback for every
    step, and the same closure is every step's scheduled action. A step
    allocates only the engine's event. Steps are immutable values, so
    callers build a transaction's list once and share it across retries
    and, for replica transactions, across receivers. *)

type t

val create :
  ?on_wait:(unit -> unit) ->
  clock:Dangers_runtime.Clock.t ->
  locks:Dangers_lock.Lock_manager.t ->
  action_time:float ->
  unit ->
  t
(** [on_wait] fires every time a request blocks (whether or not it then
    deadlocks) — the paper's wait events. @raise Invalid_argument on a
    negative action time. *)

type step = {
  resource : int;  (** lock to take *)
  mode : Dangers_lock.Mode.t;
      (** [X] for updates; [S] for reads (the model ignores read locks, but
          §5's serializable lazy-master sends read-lock RPCs — schemes
          choose) *)
  cost : float option;
      (** duration of this action; [None] = the executor's Action_Time.
          Eager replication uses it to charge message delay on remote
          steps (the "delays make it worse" ablation). *)
  work : unit -> unit;
      (** runs when the action completes (cost seconds after the grant);
          typically buffers a write *)
}

val update_step : resource:int -> step
(** An [X]-mode step with no work — the common case. *)

val read_step : resource:int -> step
(** An [S]-mode step with no work. *)

val steps_of_ops : Op.t list -> step list
(** One step per op on the op's object id: {!update_step} for updates,
    {!read_step} for reads. Steps are immutable, so a scheme builds them
    once per submission and reuses them on every retry. *)

val run :
  t ->
  owner:Txn_id.t ->
  steps:step list ->
  on_commit:(unit -> unit) ->
  on_deadlock:(cycle:int list -> unit) ->
  unit
(** Start the transaction now. [on_commit] runs after the last step's work
    with all locks still held (publish writes / trigger propagation there);
    the locks are released immediately afterwards. On deadlock the victim's
    locks are released first, then [on_deadlock] runs — resubmit from there
    if desired. An empty step list commits immediately. *)

val active : t -> int
(** Transactions started but not yet committed or killed. *)

val locks : t -> Dangers_lock.Lock_manager.t
val action_time : t -> float
