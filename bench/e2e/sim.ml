(* The simulator workloads: one replication scheme at one parameter point,
   built, started and measured through the schemes' public constructors —
   the same calls [Scheme.run_outcome_named] makes, split so that set-up
   and the measured window are timed apart. A repetition may run several
   seeds derived from the workload seed, for regimes (the eager deadlock
   storm) whose work swings from one seed to the next. The traced pass
   replaces the measured window by a loop over [Engine.step] with a span
   around every event; [Par_eager] exposes no step, so its traced pass
   times whole phases and adds the one-domain run its speed-up is measured
   against. *)

module Params = Dangers_analytic.Params
module Scheme = Dangers_experiments.Scheme
module Sweep = Dangers_runner.Sweep
module Export = Dangers_runner.Export
module Common = Dangers_replication.Common
module Eager_group = Dangers_replication.Eager_group
module Lazy_group = Dangers_replication.Lazy_group
module Par_eager = Dangers_replication.Par_eager
module Clock = Dangers_runtime.Clock
module Engine = Dangers_sim.Engine
module Observe = Dangers_sim.Observe
module Obs = Dangers_obs.Metrics
module Json = Dangers_obs.Json

type config = {
  scheme : string;
  nodes : int;
  db_size : int;
  tps : float;
  span : float;
  seeds : int;  (** simulations per repetition, at seeds derived from the workload's *)
  domains : int;
}

let params c =
  { Params.default with Params.nodes = c.nodes; db_size = c.db_size; tps = c.tps }

let seeds c ~seed = List.init c.seeds (fun i -> seed + (101 * i))

type system = {
  start : unit -> unit;
  measure : unit -> unit;
  base : Common.base option;  (** serial schemes: the engine a traced pass steps *)
  outcome : unit -> Scheme.outcome;
  events : unit -> int;
}

let build ?obs c ~seed ~domains =
  let p = params c in
  match c.scheme with
  | "eager-group" ->
      let sys = Eager_group.create ?obs p ~seed in
      let base = Eager_group.base sys in
      {
        start = (fun () -> Eager_group.start sys);
        measure = (fun () -> Common.measure base ~warmup:0. ~span:c.span);
        base = Some base;
        outcome =
          (fun () ->
            let summary = Eager_group.summary sys in
            Eager_group.stop_load sys;
            { Scheme.summary; diagnostics = [] });
        events = (fun () -> Clock.events_fired base.Common.clock);
      }
  | "lazy-group" ->
      let sys = Lazy_group.create ?obs p ~seed in
      let base = Lazy_group.base sys in
      {
        start = (fun () -> Lazy_group.start sys);
        measure = (fun () -> Common.measure base ~warmup:0. ~span:c.span);
        base = Some base;
        outcome =
          (fun () ->
            let summary = Lazy_group.summary sys in
            Lazy_group.stop_load sys;
            {
              Scheme.summary;
              diagnostics =
                [ ("divergence", float_of_int (Lazy_group.divergence sys)) ];
            });
        events = (fun () -> Clock.events_fired base.Common.clock);
      }
  | "par-eager-group" ->
      let sys = Observe.with_observation ?obs (fun () -> Par_eager.create p ~seed) in
      {
        start = (fun () -> Par_eager.start sys);
        measure =
          (fun () -> Par_eager.measure ~domains sys ~warmup:0. ~span:c.span);
        base = None;
        outcome =
          (fun () ->
            let summary = Par_eager.summary sys in
            Par_eager.stop_load sys;
            { Scheme.summary; diagnostics = Par_eager.diagnostics sys });
        events = (fun () -> Par_eager.events_fired sys);
      }
  | other -> invalid_arg ("Sim.build: no benchmark workload for scheme " ^ other)

let outcomes_text c ~seed outcomes =
  List.map2
    (fun seed outcome ->
      Json.to_string
        (Export.to_json
           (Export.record_of_item
              (Sweep.Scheme_item { scheme = c.scheme; seed; outcome }))))
    (seeds c ~seed) outcomes
  |> String.concat "\n"

(* What the registry computes for these seeds at one domain: the reference
   every repetition's outcomes must equal. *)
let reference_digest c ~seed =
  Rep.digest
    (outcomes_text c ~seed
       (List.map
          (fun seed ->
            Scheme.run_outcome_named c.scheme (Scheme.spec (params c)) ~seed ~warmup:0.
              ~span:c.span)
          (seeds c ~seed)))

(* Set-up and measured time, summed over the derived seeds. *)
type window = {
  mutable setup_s : float;
  mutable run_s : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable events : int;
}

(* Each derived seed in turn: build and start its system (set-up), run
   [measure] on it, and collect its outcome, so only one system is alive at
   a time. Set-up includes this process's own start since [spawned_at]. *)
let run_seeds ?obs c ~seed ~domains ~spawned_at ~measure =
  let w =
    {
      setup_s = Probe.seconds_since spawned_at;
      run_s = 0.;
      minor_words = 0.;
      promoted_words = 0.;
      major_collections = 0;
      events = 0;
    }
  in
  let outcomes =
    List.map
      (fun seed ->
        let t0 = Probe.now_ns () in
        let sys = build ?obs c ~seed ~domains in
        sys.start ();
        w.setup_s <- w.setup_s +. Probe.seconds_since t0;
        let gc0 = Gc.quick_stat () in
        let t1 = Probe.now_ns () in
        measure sys;
        w.run_s <- w.run_s +. Probe.seconds_since t1;
        let gc1 = Gc.quick_stat () in
        w.minor_words <- w.minor_words +. (gc1.minor_words -. gc0.minor_words);
        w.promoted_words <-
          w.promoted_words +. (gc1.promoted_words -. gc0.promoted_words);
        w.major_collections <-
          w.major_collections + (gc1.major_collections - gc0.major_collections);
        w.events <- w.events + sys.events ();
        let outcome = sys.outcome () in
        (* Collect this system before building the next, so the peak
           resident set is one system's, not the garbage of several. *)
        Gc.full_major ();
        outcome)
      (seeds c ~seed)
  in
  (w, outcomes)

let gc_values w =
  let per_event words = words /. float_of_int (max 1 w.events) in
  [
    ("gc.minor_words_per_event", per_event w.minor_words);
    ("gc.promoted_words_per_event", per_event w.promoted_words);
    ("gc.major_collections", float_of_int w.major_collections);
  ]

let result c ~seed w ~outcomes ?(values = []) ?(notes = []) ?(failures = []) () =
  {
    Rep.setup_s = w.setup_s;
    run_s = w.run_s;
    rss_mb = Probe.peak_rss_mb None;
    attempted = List.length outcomes;
    failures;
    digest = Rep.digest (outcomes_text c ~seed outcomes);
    values;
    notes;
  }

let untraced c ~seed ~spawned_at =
  let w, outcomes =
    run_seeds c ~seed ~domains:c.domains ~spawned_at ~measure:(fun sys -> sys.measure ())
  in
  result c ~seed w ~outcomes ()

(* Step the engine to [until] exactly as [Engine.run ~until] would, timing
   every event. *)
let step_until engine ~until ~observe =
  let continue = ref true in
  while !continue do
    match Engine.next_time engine with
    | Some t when t <= until ->
        let t0 = Probe.now_ns () in
        ignore (Engine.step engine);
        observe (Probe.ns_between t0 (Probe.now_ns ()))
    | Some _ | None -> continue := false
  done;
  Engine.run engine ~until

(* [Common.measure ~warmup:0.], one event at a time. *)
let stepped_measure c ~observe sys =
  match sys.base with
  | None -> invalid_arg "Sim.stepped_measure: scheme has no serial engine"
  | Some base ->
      let engine =
        match Clock.sim_engine base.Common.clock with
        | Some engine -> engine
        | None -> invalid_arg "Sim.stepped_measure: scheme is not on the simulator clock"
      in
      step_until engine ~until:0. ~observe;
      Dangers_sim.Metrics.start_window base.Common.metrics;
      step_until engine ~until:c.span ~observe

(* Serial schemes: [run_s] = the timed steps + the loop around them, each
   step corrected by the calibrated cost of an empty span. *)
let stepped c ~seed ~spawned_at ~overhead ~recorder ~obs =
  let steps = Probe.ns_histogram obs "sim.step_ns" in
  let step_max = Obs.gauge obs "sim.step_ns.max" in
  let stepped_ns = ref 0. in
  let observe ns =
    let ns = Float.max 0. (ns -. overhead) in
    stepped_ns := !stepped_ns +. ns;
    Obs.observe steps ns;
    Obs.max_gauge step_max ns
  in
  let w, outcomes =
    Probe.span recorder "repetition" (fun () ->
        run_seeds ~obs c ~seed ~domains:1 ~spawned_at ~measure:(fun sys ->
            Probe.span recorder "measured" (fun () -> stepped_measure c ~observe sys)))
  in
  let snap = Obs.snapshot obs in
  let step_s = !stepped_ns *. 1e-9 in
  let residual = w.run_s -. step_s in
  let values =
    [
      ("sim.step_ns.p50", Probe.quantile obs "sim.step_ns" 0.5);
      ("sim.step_ns.p99", Probe.quantile obs "sim.step_ns" 0.99);
      ("sim.step_ns.max", Obs.gauge_value step_max);
      ("sim.step_share", step_s /. w.run_s);
      ( "sim.queue_high_water",
        Option.value ~default:0. (Obs.snapshot_gauge snap "engine.queue_high_water") );
      ("engine.events", float_of_int w.events);
      ("layers.residual_share", residual /. w.run_s);
    ]
    @ gc_values w
    @ Probe.layer_counters (Probe.counter snap)
  in
  let note =
    Printf.sprintf
      "layers %s: setup %.4f s; run %.4f s = %d steps %.4f s + loop residual \
       %.4f s (%.1f%%)"
      c.scheme w.setup_s w.run_s w.events step_s residual (100. *. residual /. w.run_s)
  in
  result c ~seed w ~outcomes ~values ~notes:[ note ] ()

(* The partitioned engine has no public step: time its phases, and rerun
   at one domain for the speed-up and the domain-count invariance check. *)
let phased c ~seed ~spawned_at ~recorder ~obs =
  let measure label sys = Probe.span recorder label sys.measure in
  let w, outcomes =
    run_seeds ~obs c ~seed ~domains:c.domains ~spawned_at ~measure:(measure "measured")
  in
  let d1, d1_outcomes =
    run_seeds c ~seed ~domains:1 ~spawned_at ~measure:(measure "measured at 1 domain")
  in
  let speedup = d1.run_s /. w.run_s in
  let failures =
    if String.equal (outcomes_text c ~seed outcomes) (outcomes_text c ~seed d1_outcomes)
    then []
    else [ Printf.sprintf "%d-domain outcome differs from 1 domain" c.domains ]
  in
  let diag key =
    List.fold_left
      (fun acc o -> acc +. Option.value ~default:0. (Scheme.diagnostic o key))
      0. outcomes
  in
  let values =
    [
      ("engine.events", float_of_int w.events);
      ("parsim.windows", diag "windows");
      ("parsim.posts_per_window", diag "channel_posts" /. Float.max 1. (diag "windows"));
      ("parsim.null_messages", diag "null_messages");
      ("par_eager.deadlock_probes", diag "deadlock_probes");
      ("parsim.speedup_d2", speedup);
    ]
    @ gc_values w
    @ Probe.layer_counters (Probe.counter (Obs.snapshot obs))
  in
  let note =
    Printf.sprintf
      "layers %s: setup %.4f s; measure %.4f s at %d domains, %.4f s at 1 \
       (speed-up %.3f)"
      c.scheme w.setup_s w.run_s c.domains d1.run_s speedup
  in
  result c ~seed w ~outcomes ~values ~notes:[ note ] ~failures ()

let traced c ~seed ~spawned_at ~overhead ~recorder ~obs =
  if String.equal c.scheme "par-eager-group" then
    phased c ~seed ~spawned_at ~recorder ~obs
  else stepped c ~seed ~spawned_at ~overhead ~recorder ~obs
