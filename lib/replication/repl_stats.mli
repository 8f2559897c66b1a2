(** The counters every replication scheme keeps, and the per-run summary
    read from them.

    {!create} resolves every handle once per system (once per node in
    {!Par_eager}); the hot path bumps a field with
    {!Dangers_sim.Metrics.incr}, one store and no name lookup. All schemes
    fill the same record, so experiments compare them without per-scheme
    plumbing. A registry sees each counter as [scheme.<field>_total] once it
    has fired (see {!Dangers_sim.Metrics.export}). *)

module Metrics = Dangers_sim.Metrics

type t = {
  commits : Metrics.counter;  (** user (root / master / base) transactions committed *)
  waits : Metrics.counter;  (** lock requests that blocked *)
  deadlocks : Metrics.counter;  (** transactions killed as deadlock victims *)
  restarts : Metrics.counter;  (** deadlock and timeout victims resubmitted *)
  reconciliations : Metrics.counter;
      (** lazy-group updates with a broken timestamp chain, lazy-undo
          refusals, two-tier base replays failing acceptance *)
  replica_applied : Metrics.counter;  (** replica updates applied at a non-origin node *)
  stale_discards : Metrics.counter;  (** replica updates older than the local copy *)
  replica_txns : Metrics.counter;  (** lazy replica-update transactions committed *)
  replica_restarts : Metrics.counter;  (** replica-update transactions restarted *)
  syncs : Metrics.counter;  (** mobile reconnects that finished replay and refresh *)
  tentative_commits : Metrics.counter;  (** mobile transactions committed tentatively *)
  tentative_accepted : Metrics.counter;  (** tentative transactions accepted at replay *)
  tentative_rejected : Metrics.counter;  (** tentative transactions rejected at replay *)
  scope_violations : Metrics.counter;  (** two-tier submits outside the node's scope *)
  undone : Metrics.counter;  (** lazy-undo transactions backed out after a refusal *)
  durable : Metrics.counter;  (** lazy-undo transactions acknowledged by every replica *)
  deadlock_probes : Metrics.counter;  (** par-eager edge-chasing probes sent *)
  timeout_aborts : Metrics.counter;  (** par-eager lock-timeout aborts *)
  apply_dropped : Metrics.counter;  (** par-eager commit applies lost to a faulty link *)
}

val create : Metrics.t -> t

type summary = {
  scheme : string;
  window : float;  (** measured sim-time, seconds *)
  commits : int;
  waits : int;
  deadlocks : int;
  restarts : int;
  reconciliations : int;
  commit_rate : float;
  wait_rate : float;
  deadlock_rate : float;
  reconciliation_rate : float;
  mean_duration : float;  (** mean committed transaction duration, seconds *)
}

val summarize : scheme:string -> Metrics.t -> t -> summary
(** Counts and per-second rates of one system's counters within the
    view's current window (since {!Dangers_sim.Metrics.start_window}); the
    mean duration covers every commit. *)

val pp_summary : Format.formatter -> summary -> unit
