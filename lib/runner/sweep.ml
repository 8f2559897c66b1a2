module Experiment = Dangers_experiments.Experiment
module Registry = Dangers_experiments.Registry
module Scheme = Dangers_experiments.Scheme
module Obs = Dangers_obs.Metrics
module Profiling = Dangers_obs.Profiling
module Observe = Dangers_sim.Observe
module Trace = Dangers_sim.Trace
module Trace_export = Dangers_sim.Trace_export

type task =
  | Experiment_task of { id : string; quick : bool; seed : int }
  | Scheme_task of {
      scheme : string;
      spec : Scheme.spec;
      seed : int;
      warmup : float;
      span : float;
    }

type item =
  | Experiment_item of { seed : int; result : Experiment.result }
  | Scheme_item of { scheme : string; seed : int; outcome : Scheme.outcome }

let experiment_tasks ?(quick = false) experiments ~seeds =
  List.concat_map
    (fun (e : Experiment.t) ->
      List.map
        (fun seed -> Experiment_task { id = e.Experiment.id; quick; seed })
        seeds)
    experiments

let scheme_tasks ?(warmup = 5.) ?(span = 120.) ~seeds ~specs names =
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun spec ->
          List.map
            (fun seed -> Scheme_task { scheme; spec; seed; warmup; span })
            seeds)
        specs)
    names

let run_task = function
  | Experiment_task { id; quick; seed } -> (
      match Registry.find id with
      | None ->
          invalid_arg
            (Printf.sprintf "Sweep.run_task: unknown experiment %S (valid: %s)"
               id
               (String.concat ", " (Registry.ids ())))
      | Some e -> Experiment_item { seed; result = Experiment.run e ~quick ~seed })
  | Scheme_task { scheme; spec; seed; warmup; span } ->
      let outcome = Scheme.run_outcome_named scheme spec ~seed ~warmup ~span in
      Scheme_item { scheme; seed; outcome }

(* The one split of a domain budget: [min budget tasks] workers, and each
   task [budget / workers] domains, so their product never exceeds the
   budget. The per-task budget is ambient (Domain.DLS) and the worker
   domains are fresh, so it is installed inside the per-task callback, on
   the domain that actually runs the task. *)
let map_budgeted ~jobs ~f tasks =
  let budget = max 1 (min Task_pool.max_workers jobs) in
  let workers = max 1 (min budget (List.length tasks)) in
  let domains = budget / workers in
  let f =
    if domains > 1 then fun task -> Observe.with_domains domains (fun () -> f task)
    else f
  in
  Array.to_list (Task_pool.map ~jobs:workers ~f (Array.of_list tasks))

let run ?(jobs = 1) tasks = map_budgeted ~jobs ~f:run_task tasks

(* --- observed runs --- *)

let task_label = function
  | Experiment_task { id; _ } -> "experiment:" ^ id
  | Scheme_task { scheme; _ } -> "scheme:" ^ scheme

let task_seed = function
  | Experiment_task { seed; _ } | Scheme_task { seed; _ } -> seed

type observation = {
  o_label : string;
  o_seed : int;
  o_snapshot : Obs.snapshot;
  o_trace : Trace_export.section option;
  o_series : Dangers_obs.Timeseries.t option;
  o_profile : Profiling.phase;  (** the whole task, wall-clock + GC *)
}

let run_task_observed ?(trace = false) ?trace_capacity ?series_interval task =
  let registry = Obs.create () in
  let tracer = if trace then Some (Trace.create ?capacity:trace_capacity ()) else None in
  let series =
    Option.map
      (fun interval -> Dangers_obs.Timeseries.create ~interval registry)
      series_interval
  in
  let item, profile =
    Profiling.timed (task_label task) (fun () ->
        Observe.with_observation ~obs:registry ?tracer ?series (fun () ->
            run_task task))
  in
  Obs.record_phase registry profile;
  let observation =
    {
      o_label = task_label task;
      o_seed = task_seed task;
      o_snapshot = Obs.snapshot registry;
      o_trace =
        Option.map
          (fun tr ->
            Trace_export.section ~label:(task_label task) ~seed:(task_seed task)
              tr)
          tracer;
      o_series = series;
      o_profile = profile;
    }
  in
  (item, observation)

let run_observed ?(jobs = 1) ?(trace = false) ?trace_capacity ?series_interval
    tasks =
  map_budgeted ~jobs
    ~f:(run_task_observed ~trace ?trace_capacity ?series_interval)
    tasks
