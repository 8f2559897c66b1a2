(** Shared scaffolding for the replication-scheme simulators: one engine,
    one set of scheme counters, a replica store and Lamport clock per node,
    per-node RNG splits, and the measured-window drill. *)

module Params = Dangers_analytic.Params
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Txn_id = Dangers_txn.Txn_id
module Profile = Dangers_workload.Profile
module Generator = Dangers_workload.Generator
module Rng = Dangers_util.Rng

type base = {
  params : Params.t;
  profile : Profile.t;
  initial_value : float;
  clock : Clock.t;  (** every event the scheme schedules *)
  metrics : Metrics.t;  (** the measured window over [stats] *)
  stats : Repl_stats.t;  (** this system's scheme counters *)
  rng : Rng.t;
  stores : Fstore.t array;  (** one replica of the whole database per node *)
  clocks : Timestamp.Clock.t array;
  txn_gen : Txn_id.Gen.t;
  mutable generators : Generator.t list;
  obs : Dangers_obs.Metrics.t option;
      (** observability registry shared by every layer of this system;
          [None] runs fully uninstrumented *)
  commit_seconds : Dangers_obs.Metrics.histogram option;
      (** submit-to-commit latency histogram ([scheme.commit_seconds]),
          present iff [obs] is *)
  series : Dangers_obs.Timeseries.t option;
      (** ambient time-series recorder; {!measure} samples it on the
          simulated clock across the measured window *)
}

val make :
  ?obs:Dangers_obs.Metrics.t ->
  ?clock:Clock.t ->
  ?profile:Profile.t -> ?initial_value:float -> Params.t -> seed:int -> base
(** Validates the parameters. The profile defaults to the model's
    ([Profile.of_params]); every object starts at [initial_value]
    (default 0). The clock defaults to a fresh virtual-time engine
    ([Engine.create ()]); pass [Dangers_runtime.Live_clock.(create Wall)]
    to run the same scheme on wall time. When [obs] is given,
    {!Metrics.export} reports the clock and the scheme counters to it,
    and {!measure} records per-phase wall-clock and allocation
    profiles. *)

val start_generators : base -> submit:(node:int -> Dangers_txn.Op.t list -> unit) -> unit
(** One Poisson generator per node at [params.tps], each on its own RNG
    split. @raise Invalid_argument if generators are already running. *)

val stop_generators : base -> unit

val backoff_delay : Params.t -> Rng.t -> float
(** A deadlock victim's restart delay, one draw from the RNG: uniform in
    [0.5, 1.5] x the scheme-free transaction duration (Actions x
    Action_Time) — long enough to let the conflicting transaction
    finish, short enough not to distort the load. *)

val executor :
  ?on_restart:(unit -> unit) ->
  base ->
  locks:Dangers_lock.Lock_table.t ->
  retry_rng:Rng.t ->
  Dangers_txn.Executor.t
(** An executor over [locks] with the schemes' retry policy. Every wait
    counts in [stats.waits]; a deadlock victim fires [on_restart]
    (default: count [stats.deadlocks] and [stats.restarts]) and restarts
    with an owner id from [txn_gen] after a {!backoff_delay} drawn from
    [retry_rng]. *)

val commit_duration : base -> started:float -> unit
(** Record a committed transaction's duration sample and bump the commit
    counter. *)

val summary : scheme:string -> base -> Repl_stats.summary
(** {!Repl_stats.summarize} over this system's window and counters. *)

val drain : base -> unit
(** Run the clock until no events remain (generators must be stopped). *)

val measure : base -> warmup:float -> span:float -> unit
(** Run [warmup] seconds, reset the metrics window, run [span] more. When
    a {!base.series} recorder is attached, it is rebased after warmup and
    sampled every [Timeseries.interval] simulated seconds across the
    measured window (never rescheduling past its end, so {!drain} still
    terminates). Detached runs schedule nothing and stay byte-identical
    to pre-telemetry behaviour. *)
