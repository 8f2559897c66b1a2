(** Lock manager: lock table + deadlock detection + statistics.

    Policy follows the paper's model: detection runs the moment a request
    blocks, and the victim is the *requester* — equation (3) derives the
    deadlock probability per request, so a deadlock costs exactly the
    requesting transaction. The victim's queued request is withdrawn before
    [Deadlock] is returned; the caller must then abort the transaction
    ([release_all]) and, per §7, resubmit it. *)

type t

val create : ?obs:Dangers_obs.Metrics.t -> ?debug_check:bool -> unit -> t
(** Deadlock detection is {!Lock_table.find_cycle}: it walks the table's
    incrementally-maintained blocker lists and marks visits in the owner
    records, so its state is bounded by the live owners. With
    [~debug_check:true] (or the [DANGERS_LOCK_DEBUG] environment variable
    set) every blocked request is additionally cross-checked against the
    original from-scratch DFS ({!Waits_for.find_cycle} over freshly
    recomputed blockers); divergence raises [Failure].

    When [obs] is given, the manager registers a pull source exposing
    [lock.waits_total], [lock.deadlocks_total],
    [lock.deadlock_dfs_visits_total] and the gauge
    [lock.live_locks_high_water] (the table's size bound) at snapshot
    time; the request path is unchanged either way. *)

type outcome =
  | Granted
  | Waiting
      (** Blocked with no deadlock; [on_grant] will fire when the lock is
          granted. Counted as a wait. *)
  | Deadlock of int list
      (** This request closed a waits-for cycle (the list, starting with the
          requester). The request has been withdrawn; [on_grant] will never
          fire. Counted as a wait and a deadlock. *)

val request :
  t -> owner:int -> resource:int -> mode:Mode.t -> on_grant:(unit -> unit) ->
  outcome

val release_all : t -> owner:int -> unit
(** Commit or abort: drop all locks and any queued request, waking
    unblocked waiters. *)

val table : t -> Lock_table.t
(** The underlying table, for invariant checks in tests. *)

val waits : t -> int
(** Requests that blocked (including those that then deadlocked). *)

val deadlocks : t -> int

val dfs_visits : t -> int
(** Nodes expanded by deadlock detection since creation (or the last
    {!reset_counters}) — the cost driver equation (3) prices. *)

val reset_counters : t -> unit
