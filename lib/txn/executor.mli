(** Event-driven transaction executor.

    Runs a transaction as the model prescribes: a sequence of actions, each
    of which first acquires a lock on its resource and then occupies
    Action_Time of simulated time. Waits stretch the transaction; a request
    that closes a waits-for cycle kills it (victim = requester, matching the
    derivation of equation (3)), and the executor resubmits it: the victim
    releases its locks, waits a backoff and starts over as a new
    transaction with a fresh owner id (§7's "resubmitted and reprocessed
    until it succeeds"). Every scheme's retries run here; callers only
    count them.

    The executor is scheme-agnostic: callers provide the step list (a
    single-node transaction has [Actions] steps; an eager-replicated one has
    [Actions x Nodes] steps over per-node resources) and the commit
    continuation.

    Lazy-group turns every commit into Nodes - 1 replica transactions, so
    the cost of a step is paid Nodes times over, and an eager deadlock
    storm restarts a victim every few events. {!run} therefore builds one
    set of closures per submission and reuses it on every attempt: the
    attempt's state lives in one mutable record, the same closure is the
    lock's grant callback for every step, the same closure is every
    step's scheduled action, and the closure that requests a step's lock
    is also the restart the backoff schedules. A step allocates only the
    engine's event; a
    restart allocates only the engine's event and what the lock table
    records for the killed request: its waiter record, its blocker list
    and the cycle it closed. Steps are immutable values,
    so callers build a transaction's list once and share it across
    retries and, for replica transactions, across receivers. *)

type t

val create :
  ?on_wait:(unit -> unit) ->
  ?on_restart:(unit -> unit) ->
  clock:Dangers_runtime.Clock.t ->
  locks:Dangers_lock.Lock_table.t ->
  action_time:float ->
  ids:Txn_id.Gen.t ->
  backoff:(unit -> float) ->
  unit ->
  t
(** [on_wait] fires every time a request blocks (whether or not it then
    deadlocks) — the paper's wait events. The retry policy: every attempt
    takes its owner id from [ids]; when one is killed, the victim's locks
    are released, [on_restart] fires, and [backoff] is drawn for the
    delay after which the submission starts over. Executors over one lock
    space may share [ids]. @raise Invalid_argument on a negative action
    time. *)

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
}
(** A step only locks and takes time: schemes publish a transaction's
    writes in [on_commit]. *)

val update_step : resource:int -> step
(** An [X]-mode step at Action_Time — the common case. *)

val read_step : resource:int -> step
(** An [S]-mode step at Action_Time. *)

val steps_of_ops : Op.t list -> step list
(** One step per op on the op's object id: {!update_step} for updates,
    {!read_step} for reads. Steps are immutable, so a scheme builds them
    once per submission and reuses them on every retry. *)

val run :
  t -> steps:(unit -> step list) -> on_commit:(started:float -> unit) -> unit
(** Submit a transaction: its first attempt starts now, and deadlock
    victims restart under the executor's retry policy until one attempt
    commits. [steps] is called at the start of every attempt; return the
    same list each time unless the steps must be drawn afresh (eager's
    random transport delays). [on_commit] runs once the last step's action
    time has passed, with all locks still held (publish writes / trigger propagation
    there), given the time the committing attempt started; the locks are
    released immediately afterwards. An empty step list commits
    immediately. *)

val active : t -> int
(** Attempts started but not yet committed or killed. *)

val locks : t -> Dangers_lock.Lock_table.t
val action_time : t -> float
