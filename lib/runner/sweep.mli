(** The sweep task model: what the multicore runner executes.

    A sweep is a list of independent tasks — reproduce one experiment at
    one seed, or run one replication scheme at one grid point and seed —
    executed by {!Task_pool} and collected back in task order. Because
    each task carries its own seed and builds its own simulator, the item
    list for a given task list is identical at any [jobs]. *)

module Experiment = Dangers_experiments.Experiment
module Scheme = Dangers_experiments.Scheme

type task =
  | Experiment_task of { id : string; quick : bool; seed : int }
      (** Reproduce the registered experiment [id]. *)
  | Scheme_task of {
      scheme : string;  (** a {!Scheme} registry name *)
      spec : Scheme.spec;  (** the grid point *)
      seed : int;
      warmup : float;
      span : float;
    }

type item =
  | Experiment_item of { seed : int; result : Experiment.result }
  | Scheme_item of { scheme : string; seed : int; outcome : Scheme.outcome }

val experiment_tasks :
  ?quick:bool -> Experiment.t list -> seeds:int list -> task list
(** One task per (experiment, seed), experiments outermost. [quick]
    defaults to false. *)

val scheme_tasks :
  ?warmup:float ->
  ?span:float ->
  seeds:int list ->
  specs:Scheme.spec list ->
  string list ->
  task list
(** One task per (scheme name, spec, seed), schemes outermost. Defaults:
    5 s warmup, 120 s span. *)

val run_task : task -> item
(** @raise Invalid_argument on an unknown experiment id or scheme name. *)

val run : ?jobs:int -> task list -> item list
(** Execute every task under a domain budget of [jobs] (default 1,
    clamped to 1..{!Task_pool.max_workers}) and return the items in task
    order — byte-identical to a serial run.

    The budget is split in one way: [min budget (List.length tasks)]
    workers run the tasks, and each task gets [budget / workers] domains
    for its own simulation, installed as the ambient budget
    ({!Dangers_sim.Observe.with_domains}) only when above 1. So workers ×
    per-task domains ≤ min(budget, 128), whatever [jobs] is. Schemes built
    on the conservative parallel engine run their partitions on the
    per-task domains; every other scheme ignores them. Items are
    byte-identical at any [jobs]. *)

(** {1 Observed runs}

    The observability variant of {!run}: each task gets its own metrics
    registry (and, with [~trace:true], its own bounded tracer) installed
    as the worker domain's ambient observation context for exactly that
    task, so parallel workers never share a registry and the {!item}s are
    the same values {!run} would produce. *)

type observation = {
  o_label : string;  (** ["experiment:<id>"] or ["scheme:<name>"] *)
  o_seed : int;
  o_snapshot : Dangers_obs.Metrics.snapshot;
  o_trace : Dangers_sim.Trace_export.section option;
      (** present iff tracing was requested *)
  o_series : Dangers_obs.Timeseries.t option;
      (** present iff a [series_interval] was given: the task's registry
          sampled every that-many {e simulated} seconds across the
          scheme's measured window *)
  o_profile : Dangers_obs.Profiling.phase;
      (** the whole task: wall-clock and GC allocation (also recorded in
          the snapshot's phase list, after the scheme's own
          warmup/measured phases) *)
}

val run_task_observed :
  ?trace:bool ->
  ?trace_capacity:int ->
  ?series_interval:float ->
  task ->
  item * observation

val run_observed :
  ?jobs:int ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?series_interval:float ->
  task list ->
  (item * observation) list
(** Items and observations in task order at any [jobs], split as in
    {!run}. Wall-clock profiles vary run to run, of course; everything
    else is deterministic — including the sampled series, which runs on
    the simulated clock. *)
