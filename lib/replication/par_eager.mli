(** Partitioned eager update-anywhere replication on the parallel engine.

    The legacy eager simulator ({!Eager_impl}) runs every node's locks,
    transactions and RNG streams through one shared executor on one heap —
    faithful to the model, but structurally serial: no partitioning of
    that global lock space can execute in parallel and stay byte-identical.
    This module is the same §3 scheme re-derived as a distributed system,
    one {!Dangers_sim.Par_engine} partition per node:

    - every per-node structure (store, Lamport clock, lock table, metrics,
      RNG streams, transaction table) is confined to its partition;
    - a transaction X-locks the object at {e every} replica — lock
      requests, grants, commit-applies and aborts are timestamped messages
      whose transmission delay is at least the network's minimum delay,
      which is exactly the engine's lookahead;
    - replicas release a transaction's locks when its commit-apply
      arrives, so a later conflicting transaction cannot read a replica
      that has not yet seen the earlier commit — update-everywhere
      serialization without any shared lock manager;
    - distributed deadlocks are found by Chandy–Misra–Haas-style
      edge-chasing probes (hop-bounded, stale-probe-tolerant), victims
      restart with backoff exactly like the legacy scheme, and a
      deterministic lock-wait deadline backstops any cycle a probe in
      flight misses.

    Fixed-seed runs are byte-identical at any domain count: partitions are
    per-node regardless of how many domains execute them, so the event
    sequences — and hence metrics, stores, clocks and counters — do not
    depend on [domains] at all. [domains] only buys wall-clock speed on
    multicore hosts. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Repl_stats = Repl_stats

type t

val create :
  ?profile:Profile.t ->
  ?initial_value:float ->
  ?delay:Delay.t ->
  ?faults:Network.faults ->
  Params.t ->
  seed:int ->
  t
(** [delay] defaults to [Constant (max params.message_delay 0.05)]; its
    {!Delay.min_bound} is the lookahead and must be positive ([Zero] and
    [Exponential] models admit no lookahead — use the legacy scheme for
    those).

    [faults] perturbs commit-apply messages only (locks and probes are
    the control plane and stay reliable, so a fault plan degrades
    convergence, never liveness); a dropped apply still releases the
    replica's locks. The hooks are consulted from partition windows, which
    may run concurrently: they must be pure functions of [(src, dst)] —
    a plan closed over shared mutable state (e.g. a probabilistic
    injector's RNG) would race and break determinism.

    @raise Invalid_argument on invalid parameters or a zero lookahead. *)

val start : t -> unit
(** Start the per-node Poisson open-transaction generators. *)

val stop_load : t -> unit

val measure : ?domains:int -> t -> warmup:float -> span:float -> unit
(** Advance through [warmup] simulated seconds, open the metrics windows,
    and advance [span] more — on a freshly-spawned pool of [domains]
    (default 1) worker domains. Byte-identical results at any [domains]. *)

val quiesce : ?domains:int -> ?max_events:int -> t -> unit
(** Stop the load and drain every in-flight transaction, message and
    probe. @raise Dangers_sim.Engine.Runaway after [max_events] (default
    200M) events, like {!Common.drain}. *)

val summary : t -> Repl_stats.summary
(** Per-node counters folded in node order over the measured window;
    [scheme] is ["par-eager-group"]. *)

val diagnostics : t -> (string * float) list
(** Synchronization facts, all invariant in the domain count:
    [windows], [lookahead_stalls], [null_messages], [channel_posts],
    [deadlock_probes], [timeout_aborts], [apply_dropped]. *)

val converged : t -> bool
(** Every replica byte-equal to node 0's — meaningful after {!quiesce}
    with no fault plan (drops leave measurable divergence). *)

val store_fingerprint : t -> int -> (float * int) list
(** [(value, timestamp counter)] per object at the given node, for
    equivalence tests. @raise Invalid_argument on a bad node index. *)

val lookahead : t -> float
val events_fired : t -> int
