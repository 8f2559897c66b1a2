(** Lock table: granted sets and FIFO wait queues per resource.

    Resources and owners are integers; the transaction layer encodes
    (node, object) pairs into resource ids. An owner (a transaction) waits
    on at most one resource at a time — transactions execute their actions
    sequentially — which the table enforces.

    Grant discipline is strict FIFO: a release grants waiters from the front
    of the queue until the first one that conflicts, which prevents
    starvation and makes wait order deterministic. Lock upgrades (held S,
    requested X) jump to the front of the queue.

    Each owner that holds or waits has one record: its granted locks, its
    wait with a memoized blocker list, and a deadlock-search mark. The
    record leaves the table when the owner neither holds nor waits, and a
    lock record leaves it when the resource has no holder and no waiter;
    both kinds are kept for reuse, so the table's size is bounded by the
    owners and locks live at once, never by the largest owner id or the
    resources ever locked, and once those pools are warm an uncontended
    acquire and a release allocate nothing, and neither does a deadlock
    search that finds no cycle while the blocker lists are memoized.

    With [DANGERS_LOCK_DEBUG] set, every mutation ends with a check of the
    table's invariants: no idle record is mapped, and
    {!grants_outstanding} equals the granted entries. *)

val debug : bool
(** [DANGERS_LOCK_DEBUG] is set to something other than [""] or ["0"]. *)

type t

val create : ?obs:Dangers_obs.Metrics.t -> unit -> t
(** When [obs] is given, the table registers a pull source exposing
    [lock.waits_total], [lock.deadlocks_total],
    [lock.deadlock_dfs_visits_total] and the gauge
    [lock.live_locks_high_water] (the table's size bound) at snapshot
    time; no lock path changes either way. *)

(** What {!request} decided. Declared before {!outcome}, so an
    unannotated [Granted] names {!acquire}'s. *)
type verdict =
  | Granted
  | Waiting
      (** Blocked with no deadlock; [on_grant] will fire when the lock is
          granted. Counted as a wait. *)
  | Deadlock of int list
      (** This request closed a waits-for cycle (the list, starting with the
          requester). The request has been withdrawn; [on_grant] will never
          fire. Counted as a wait and a deadlock. *)

type outcome =
  | Granted
  | Queued
      (** The request waits; the caller learns who blocks it via
          [blockers]. *)

val acquire :
  t -> owner:int -> resource:int -> mode:Mode.t -> on_grant:(unit -> unit) ->
  outcome
(** Re-entrant: a request covered by a lock already held is granted without
    a new entry. [on_grant] fires (possibly later, from [release_all] or
    [cancel_wait]) only for [Queued] requests.
    @raise Invalid_argument if [owner] is already waiting on some
    resource. *)

val blockers : t -> owner:int -> int list
(** Owners that must release before this owner's queued request can be
    granted: conflicting holders plus conflicting waiters queued ahead.
    Empty when the owner is not waiting. Deduplicated, ascending.

    The set is memoized per waiting owner and invalidated by the
    mutations that can change it (grants, releases, cancellations,
    front-of-queue upgrades), so repeated waits-for probes between state
    changes do not recompute it. *)

val blockers_fresh : t -> owner:int -> int list
(** [blockers] recomputed from the lock state, bypassing (and not touching)
    the memoized copy. For debug cross-checks and tests: the two must always
    agree. *)

val find_cycle : t -> start:int -> int list option
(** Deadlock detection: a waits-for cycle through [start], as the owners in
    waits-for order starting with [start], or [None]. The same depth-first
    traversal as {!Waits_for.find_cycle} over {!blockers} (successors in
    ascending id order, visited owners pruned), run over the memoized
    blocker lists with the visit marks kept in the owner records: a visit
    does no table lookup and allocates nothing; only a cycle found is
    built as a list. *)

val search_visits : t -> int
(** Owners expanded by {!find_cycle} since creation: the cost driver
    equation (3) prices. *)

val request :
  t -> owner:int -> resource:int -> mode:Mode.t -> on_grant:(unit -> unit) ->
  verdict
(** {!acquire} with deadlock detection, as the paper's model prices it:
    detection runs the moment a request queues, and the victim is the
    {e requester}. Equation (3) derives the deadlock probability per
    request, so a deadlock costs exactly the requesting transaction. On a
    cycle the queued request is withdrawn ({!cancel_wait}) before
    [Deadlock] is returned; the caller must then abort the transaction
    ({!release_all}) and, per §7, resubmit it.

    With [DANGERS_LOCK_DEBUG] set, every queued request's {!find_cycle}
    is also checked against the original from-scratch DFS
    ({!Waits_for.find_cycle} over {!blockers_fresh}); divergence raises
    [Failure]. *)

val waits : t -> int
(** {!request}s that queued, including those that then deadlocked. *)

val deadlocks : t -> int
(** {!request}s that closed a waits-for cycle. *)

val is_waiting : t -> owner:int -> bool
val waiting_resource : t -> owner:int -> int option

val cancel_wait : t -> owner:int -> unit
(** Drop the owner's queued request (it will never be granted); grants any
    waiters the departure unblocks. No-op when not waiting. *)

val release_all : t -> owner:int -> unit
(** Release every lock the owner holds, granting unblocked waiters (their
    [on_grant] callbacks run before this returns, oldest first).
    Also cancels the owner's queued request if any. *)

val holds : t -> owner:int -> resource:int -> Mode.t option
val held_resources : t -> owner:int -> int list
val grants_outstanding : t -> int
(** Total (owner, resource) grants — an invariant-check hook for tests. *)

val live_locks : t -> int
(** Resources with a holder or a waiter now. *)

val live_locks_high_water : t -> int
(** The most {!live_locks} since creation: the table's size bound. *)
