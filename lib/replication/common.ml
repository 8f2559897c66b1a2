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
module Obs = Dangers_obs.Metrics

type base = {
  params : Params.t;
  profile : Profile.t;
  initial_value : float;
  clock : Clock.t;
  metrics : Metrics.t;
  stats : Repl_stats.t;
  rng : Rng.t;
  stores : Fstore.t array;
  clocks : Timestamp.Clock.t array;
  txn_gen : Txn_id.Gen.t;
  mutable generators : Generator.t list;
  obs : Obs.t option;
  commit_seconds : Obs.histogram option;
  series : Dangers_obs.Timeseries.t option;
}

let make ?obs ?clock ?profile ?(initial_value = 0.) params ~seed =
  Params.validate params;
  let profile =
    match profile with Some p -> p | None -> Profile.of_params params
  in
  (* An explicit registry wins; otherwise pick up whatever observation
     context the caller's entry point installed (see {!Dangers_sim.Observe}),
     which is how `--trace-out`/`--metrics-out` reach systems built deep
     inside opaque experiment code. *)
  let obs =
    match obs with Some _ -> obs | None -> Dangers_sim.Observe.ambient_obs ()
  in
  (* A series recorder is only meaningful over a registry; ignoring it
     otherwise keeps unobserved runs entirely schedule-free. *)
  let series =
    match obs with None -> None | Some _ -> Dangers_sim.Observe.ambient_series ()
  in
  let clock = match clock with Some c -> c | None -> Engine.create () in
  (* Attach the ambient tracer unless the clock came with one. *)
  (match (Dangers_sim.Observe.ambient_tracer (), Clock.tracer clock) with
  | Some tracer, None -> Clock.set_tracer clock (Some tracer)
  | (None | Some _), _ -> ());
  let metrics = Metrics.of_engine clock in
  Option.iter (Metrics.export metrics) obs;
  {
    params;
    profile;
    initial_value;
    clock;
    metrics;
    stats = Repl_stats.create metrics;
    rng = Rng.create ~seed;
    stores =
      Array.init params.Params.nodes (fun _ ->
          Fstore.create ~db_size:params.Params.db_size ~init:initial_value);
    clocks =
      Array.init params.Params.nodes (fun node -> Timestamp.Clock.create ~node);
    txn_gen = Txn_id.Gen.create ();
    generators = [];
    obs;
    commit_seconds =
      Option.map (fun registry -> Obs.histogram registry "scheme.commit_seconds") obs;
    series;
  }

let start_generators base ~submit =
  if base.generators <> [] then
    invalid_arg "Common.start_generators: generators already running";
  base.generators <-
    List.init base.params.Params.nodes (fun node ->
        let rng = Rng.split base.rng in
        Generator.start ~clock:base.clock ~rng ~tps:base.params.Params.tps
          ~profile:base.profile ~db_size:base.params.Params.db_size
          ~submit:(fun ops -> submit ~node ops))

let stop_generators base =
  List.iter Generator.stop base.generators;
  base.generators <- []

let backoff_delay params rng =
  let duration =
    float_of_int params.Params.actions *. params.Params.action_time
  in
  (0.5 +. Rng.float rng 1.0) *. duration

let executor ?on_restart base ~locks ~retry_rng =
  let stats = base.stats in
  let on_restart =
    match on_restart with
    | Some on_restart -> on_restart
    | None ->
        fun () ->
          Metrics.incr stats.Repl_stats.deadlocks;
          Metrics.incr stats.Repl_stats.restarts
  in
  Dangers_txn.Executor.create
    ~on_wait:(fun () -> Metrics.incr stats.Repl_stats.waits)
    ~on_restart ~clock:base.clock ~locks
    ~action_time:base.params.Params.action_time ~ids:base.txn_gen
    ~backoff:(fun () -> backoff_delay base.params retry_rng)
    ()

let commit_duration base ~started =
  Metrics.incr base.stats.Repl_stats.commits;
  let duration = Clock.now base.clock -. started in
  Dangers_util.Stats.add (Metrics.txn_duration base.metrics) duration;
  match base.commit_seconds with
  | None -> ()
  | Some h -> Obs.observe h duration

let summary ~scheme base = Repl_stats.summarize ~scheme base.metrics base.stats

(* A drain that never ends is a bug (a generator or connectivity schedule
   left running); surface it instead of hanging. *)
let drain base = Clock.run ~max_events:200_000_000 base.clock

(* Sample the attached series on the simulated clock across the measured
   window. The loop never reschedules past [stop_at], so [drain] still
   terminates, and each tick only reads the registry — the instrumented
   system's own schedule is untouched. *)
let start_series_sampling base series ~stop_at =
  let interval = Dangers_obs.Timeseries.interval series in
  let rec tick () =
    let now = Clock.now base.clock in
    ignore (Dangers_obs.Timeseries.sample series ~now);
    if now +. interval <= stop_at +. 1e-9 then
      Clock.schedule_unit base.clock ~delay:interval tick
  in
  Clock.schedule_unit base.clock ~delay:interval tick

let measure base ~warmup ~span =
  let profiled = Dangers_sim.Observe.profiled ?obs:base.obs in
  profiled "warmup" (fun () -> Clock.run_for base.clock warmup);
  Metrics.start_window base.metrics;
  (match base.series with
  | None -> ()
  | Some series ->
      Dangers_obs.Timeseries.rebase series ~now:(Clock.now base.clock);
      start_series_sampling base series
        ~stop_at:(Clock.now base.clock +. span));
  profiled "measured" (fun () -> Clock.run_for base.clock span)
