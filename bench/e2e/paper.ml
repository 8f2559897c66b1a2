(* The paper workload: every registered experiment (or a chosen subset) at
   quick fidelity through the multicore sweep runner. The traced pass runs
   the same tasks through [Task_pool.map] and [Sweep.run_task_observed] —
   what [Sweep.run_observed] does — with a span around each task, so the
   critical task and the pool's idle time can be set against the sweep's
   wall time. *)

module Sweep = Dangers_runner.Sweep
module Export = Dangers_runner.Export
module Task_pool = Dangers_runner.Task_pool
module Registry = Dangers_experiments.Registry
module Experiment = Dangers_experiments.Experiment
module Obs = Dangers_obs.Metrics

type config = {
  experiments : string list;  (** ids; [[]] is the whole registry *)
  jobs : int;
}

(* The experiments the per-layer metrics name, by their share of the
   sweep: E12 is the critical path; E1 and E3 are eager, E7 and E11 lazy. *)
let profiled_ids = [ "E12"; "E1"; "E7"; "E11"; "E3" ]

let tasks c ~seed =
  let experiments =
    match c.experiments with
    | [] -> Registry.all
    | ids ->
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None -> invalid_arg ("Paper.tasks: unknown experiment " ^ id))
          ids
  in
  Sweep.experiment_tasks ~quick:true experiments ~seeds:[ seed ]

let output items = Export.to_jsonl (List.map Export.record_of_item items)

let findings_ok items =
  List.fold_left
    (fun acc item ->
      match item with
      | Sweep.Experiment_item { result; _ } ->
          acc + List.length (List.filter Experiment.finding_ok result.findings)
      | Sweep.Scheme_item _ -> acc)
    0 items

(* The same tasks serially: the sweep must be byte-identical at any
   [--jobs]. *)
let reference_digest c ~seed = Rep.digest (output (Sweep.run ~jobs:1 (tasks c ~seed)))

let result ~setup_s ~run_s ~items ~values ~notes =
  {
    Rep.setup_s;
    run_s;
    rss_mb = Probe.peak_rss_mb None;
    attempted = List.length items;
    failures = [];
    digest = Rep.digest (output items);
    values = ("experiments.findings_ok", float_of_int (findings_ok items)) :: values;
    notes;
  }

let untraced c ~seed ~spawned_at =
  let tasks = tasks c ~seed in
  let setup_s = Probe.seconds_since spawned_at in
  let t0 = Probe.now_ns () in
  let items = Sweep.run ~jobs:c.jobs tasks in
  let run_s = Probe.seconds_since t0 in
  result ~setup_s ~run_s ~items ~values:[] ~notes:[]

type task_run = {
  item : Sweep.item;
  observation : Sweep.observation;
  start : int64;
  stop : int64;
  worker : int;
}

let wall t = Probe.ns_between t.start t.stop *. 1e-9

let traced c ~seed ~spawned_at ~recorder ~obs =
  let tasks = tasks c ~seed in
  let setup_s = Probe.seconds_since spawned_at in
  let gc0 = Gc.quick_stat () in
  let t0 = Probe.now_ns () in
  let runs =
    Task_pool.map ~jobs:c.jobs
      ~f:(fun task ->
        let start = Probe.now_ns () in
        let item, observation = Sweep.run_task_observed task in
        let stop = Probe.now_ns () in
        { item; observation; start; stop; worker = (Domain.self () :> int) })
      (Array.of_list tasks)
    |> Array.to_list
  in
  let run_s = Probe.seconds_since t0 in
  let majors = (Gc.quick_stat ()).major_collections - gc0.major_collections in
  let task_s = Obs.histogram obs "runner.task_seconds" in
  List.iter
    (fun t ->
      Probe.record recorder ~tid:t.worker t.observation.o_label ~start:t.start
        ~stop:t.stop;
      Obs.observe task_s (wall t))
    runs;
  let walls = List.map wall runs in
  let task_sum = List.fold_left ( +. ) 0. walls in
  let critical = List.fold_left Float.max 0. walls in
  let sum_over f = List.fold_left (fun acc t -> acc +. f t.observation) 0. runs in
  let counter name (o : Sweep.observation) =
    float_of_int (Option.value ~default:0 (Obs.snapshot_counter o.o_snapshot name))
  in
  let events = sum_over (counter "engine.events_fired_total") in
  let per_event x = x /. Float.max 1. events in
  let experiment id =
    let label = "experiment:" ^ id in
    ( Printf.sprintf "experiments.%s_s" id,
      match List.find_opt (fun t -> String.equal t.observation.o_label label) runs with
      | Some t -> wall t
      | None -> 0. )
  in
  let values =
    [
      ("runner.critical_share", critical /. run_s);
      ("runner.pool_busy_share", task_sum /. (float_of_int c.jobs *. run_s));
      ("layers.residual_share", (run_s -. critical) /. run_s);
      ("engine.events", events);
      ( "gc.minor_words_per_event",
        per_event (sum_over (fun o -> o.o_profile.minor_words)) );
      ( "gc.promoted_words_per_event",
        per_event (sum_over (fun o -> o.o_profile.promoted_words)) );
      ("gc.major_collections", float_of_int majors);
    ]
    @ Probe.layer_counters (fun name -> sum_over (counter name))
    @ List.map experiment profiled_ids
  in
  let note =
    Printf.sprintf
      "layers paper: sweep %.4f s = critical task %.4f s + residual %.4f s; \
       %d tasks sum to %.4f s on %d workers (busy %.1f%%)"
      run_s critical (run_s -. critical) (List.length walls) task_sum c.jobs
      (100. *. task_sum /. (float_of_int c.jobs *. run_s))
  in
  result ~setup_s ~run_s ~items:(List.map (fun t -> t.item) runs) ~values ~notes:[ note ]
