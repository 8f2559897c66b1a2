(* The observability layer: metrics registry, profiling, warn-once counters,
   and the guarantee that observing a run does not change its results. *)

module Json = Dangers_obs.Json
module Metrics = Dangers_obs.Metrics
module Profiling = Dangers_obs.Profiling
module Warnings = Dangers_obs.Warnings
module Observe = Dangers_sim.Observe
module Trace = Dangers_sim.Trace
module Scheme = Dangers_experiments.Scheme
module Params = Dangers_analytic.Params
module Connectivity = Dangers_net.Connectivity
module Sim_metrics = Dangers_sim.Metrics
module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Eager_group = Dangers_replication.Eager_group

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let test_counters_and_gauges () =
  let t = Metrics.create () in
  let c = Metrics.counter t "hits" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter value" 5 (Metrics.counter_value c);
  let c' = Metrics.counter t "hits" in
  Metrics.incr c';
  checki "interned handle" 6 (Metrics.counter_value c);
  let g = Metrics.gauge t "depth" in
  Metrics.set_gauge g 2.;
  Metrics.max_gauge g 7.;
  Metrics.max_gauge g 3.;
  Alcotest.check (Alcotest.float 0.) "max gauge" 7. (Metrics.gauge_value g);
  let s = Metrics.snapshot t in
  checki "snapshot counter" 6
    (Option.get (Metrics.snapshot_counter s "hits"));
  Alcotest.check (Alcotest.float 0.) "snapshot gauge" 7.
    (Option.get (Metrics.snapshot_gauge s "depth"))

let test_histogram_buckets () =
  let t = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] t "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.9; 100. ];
  let s = Metrics.snapshot t in
  let hs = Option.get (Metrics.snapshot_histogram s "lat") in
  checki "total count" 5 hs.Metrics.hs_count;
  Alcotest.check
    (Alcotest.array Alcotest.int)
    "bucket counts (<=1, <=2, <=4, overflow)" [| 2; 1; 1; 1 |]
    hs.Metrics.hs_counts;
  Alcotest.check_raises "bad buckets"
    (Invalid_argument "Metrics.histogram: buckets must increase strictly")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 1.; 1. |] t "bad"))

let test_sources_merge () =
  let t = Metrics.create () in
  (* Two sources reporting the same counter accumulate; gauges keep max. *)
  Metrics.register_source t (fun () ->
      [ Metrics.Count ("waits", 3); Metrics.Gauge ("hw", 5.) ]);
  Metrics.register_source t (fun () ->
      [ Metrics.Count ("waits", 4); Metrics.Gauge ("hw", 2.) ]);
  let c = Metrics.counter t "waits" in
  Metrics.add c 10;
  let s = Metrics.snapshot t in
  checki "push + pull accumulate" 17
    (Option.get (Metrics.snapshot_counter s "waits"));
  Alcotest.check (Alcotest.float 0.) "gauge max across sources" 5.
    (Option.get (Metrics.snapshot_gauge s "hw"))

let test_snapshot_json_roundtrip () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "a") 3;
  Metrics.set_gauge (Metrics.gauge t "g") 1.25;
  Metrics.observe (Metrics.histogram ~buckets:[| 0.5; 1.5 |] t "h") 1.;
  Metrics.record_phase t
    {
      Profiling.phase = "demo";
      wall_seconds = 0.25;
      minor_words = 10.;
      major_words = 2.;
      promoted_words = 1.;
    };
  let s = Metrics.snapshot t in
  let s' = Metrics.snapshot_of_json (Metrics.snapshot_to_json s) in
  checkb "round-trips" true (s = s');
  Alcotest.check_raises "schema checked"
    (Json.Parse_error "unsupported metrics schema \"nope\"") (fun () ->
      ignore
        (Metrics.snapshot_of_json
           (Json.Obj [ ("schema", Json.Str "nope") ])))

let test_warnings_warn_once () =
  Warnings.reset ();
  checki "starts at zero" 0 (Warnings.total ());
  for _ = 1 to 3 do
    Warnings.warn ~key:"test.once" "something odd"
  done;
  Warnings.warn ~key:"test.other" "another thing";
  checki "every hit counted" 4 (Warnings.total ());
  checki "per key" 3 (Warnings.count ~key:"test.once");
  checki "other key" 1 (Warnings.count ~key:"test.other");
  let t = Metrics.create () in
  let s = Metrics.snapshot t in
  checki "surfaced in snapshots" 4 s.Metrics.s_warnings_total;
  Warnings.reset ();
  checki "reset" 0 (Warnings.total ())

let test_profiling_timed () =
  let result, p =
    Profiling.timed "work" (fun () ->
        (* allocate something measurable, fenced from the optimizer *)
        List.length (Sys.opaque_identity (List.init 10_000 (fun i -> i))))
  in
  checki "result passed through" 10_000 result;
  checks "phase name" "work" p.Profiling.phase;
  checkb "wall clock non-negative" true (p.Profiling.wall_seconds >= 0.);
  checkb "allocated" true (Profiling.allocated_words p > 0.);
  let p' = Profiling.of_json (Profiling.to_json p) in
  checkb "json round-trips" true (p = p')

(* Observing must not perturb the simulation: same spec + seed give the
   same summary and diagnostics with and without a registry + tracer
   attached. This is the CLI's byte-identical promise. *)
let test_observed_runs_identical () =
  let params = { Params.default with Params.nodes = 3 } in
  let spec = Scheme.spec params in
  List.iter
    (fun scheme ->
      let plain =
        Scheme.run_outcome scheme spec ~seed:42 ~warmup:1. ~span:5.
      in
      let registry = Metrics.create () in
      let tracer = Trace.create () in
      let observed =
        Observe.with_observation ~obs:registry ~tracer (fun () ->
            Scheme.run_outcome scheme spec ~seed:42 ~warmup:1. ~span:5.)
      in
      checkb
        (Scheme.name scheme ^ " summary identical when observed")
        true
        (plain.Scheme.summary = observed.Scheme.summary
        && plain.Scheme.diagnostics = observed.Scheme.diagnostics);
      (* And the observation actually saw the run. *)
      let s = Metrics.snapshot registry in
      checkb
        (Scheme.name scheme ^ " engine events observed")
        true
        (match Metrics.snapshot_counter s "engine.events_fired_total" with
        | Some n -> n > 0
        | None -> false))
    Scheme.all

let test_scheme_find_underscores () =
  checkb "underscore spelling" true
    (match Scheme.find "eager_group" with
    | Some s -> String.equal (Scheme.name s) "eager-group"
    | None -> false);
  checkb "case folded too" true
    (match Scheme.find "Two_Tier" with
    | Some s -> String.equal (Scheme.name s) "two-tier"
    | None -> false)

(* Scheme counters are private to their system: two systems reporting into
   one registry each summarize only their own window, and the registry's
   [scheme.*_total] is the sum of both lifetimes. *)
let test_shared_registry_separate_windows () =
  let params = { Params.default with Params.nodes = 3; db_size = 200; tps = 3. } in
  let build ?obs seed =
    let sys = Eager_group.create ?obs params ~seed in
    Eager_group.start sys;
    sys
  in
  let measure sys ~warmup =
    Common.measure (Eager_group.base sys) ~warmup ~span:8.;
    Eager_group.stop_load sys
  in
  let registry = Metrics.create () in
  let a = build ~obs:registry 5 in
  let b = build ~obs:registry 6 in
  measure a ~warmup:2.;
  measure b ~warmup:4.;
  let solo seed ~warmup =
    let sys = build seed in
    measure sys ~warmup;
    Eager_group.summary sys
  in
  checkb "first system's window is its own" true
    (Eager_group.summary a = solo 5 ~warmup:2.);
  checkb "second system's window is its own" true
    (Eager_group.summary b = solo 6 ~warmup:4.);
  let lifetime sys =
    Sim_metrics.total (Eager_group.base sys).Common.stats.Repl_stats.commits
  in
  checkb "the window excludes warmup commits" true
    ((Eager_group.summary a).Repl_stats.commits < lifetime a);
  checki "registry total sums both systems"
    (lifetime a + lifetime b)
    (Option.get
       (Metrics.snapshot_counter (Metrics.snapshot registry) "scheme.commits_total"))

(* The complete [scheme.*_total] set of one fixed-seed observed run per
   scheme: counters that never fire stay out of the snapshot. *)
let expected_scheme_counters =
  [
    ( "eager-group",
      [
        ("scheme.commits_total", 289);
        ("scheme.deadlocks_total", 1);
        ("scheme.restarts_total", 1);
        ("scheme.waits_total", 31);
      ] );
    ("eager-master", [ ("scheme.commits_total", 289); ("scheme.waits_total", 30) ]);
    ( "lazy-group",
      [
        ("scheme.commits_total", 291);
        ("scheme.reconciliations_total", 728);
        ("scheme.replica_applied_total", 2648);
        ("scheme.replica_restarts_total", 9);
        ("scheme.replica_txns_total", 844);
        ("scheme.waits_total", 249);
      ] );
    ( "lazy-master",
      [
        ("scheme.commits_total", 292);
        ("scheme.replica_applied_total", 3504);
        ("scheme.replica_txns_total", 1161);
        ("scheme.waits_total", 7);
      ] );
    ( "lazy-undo",
      [
        ("scheme.commits_total", 293);
        ("scheme.durable_total", 103);
        ("scheme.reconciliations_total", 400);
        ("scheme.undone_total", 190);
      ] );
    ( "two-tier",
      [
        ("scheme.commits_total", 292);
        ("scheme.replica_applied_total", 3497);
        ("scheme.replica_txns_total", 1123);
        ("scheme.stale_discards_total", 7);
        ("scheme.syncs_total", 6);
        ("scheme.tentative_accepted_total", 29);
        ("scheme.tentative_commits_total", 29);
        ("scheme.waits_total", 10);
      ] );
    ( "par-eager-group",
      [
        ("scheme.commits_total", 288);
        ("scheme.deadlock_probes_total", 584);
        ("scheme.deadlocks_total", 31);
        ("scheme.replica_applied_total", 3444);
        ("scheme.restarts_total", 31);
        ("scheme.waits_total", 382);
      ] );
  ]

let test_scheme_counters_pinned () =
  let params = { Params.default with Params.nodes = 4; db_size = 200; tps = 3. } in
  let spec =
    Scheme.spec
      ~connectivity:(Connectivity.day_cycle ~connected:6. ~disconnected:4.)
      params
  in
  List.iter
    (fun (name, expected) ->
      let registry = Metrics.create () in
      ignore
        (Observe.with_observation ~obs:registry (fun () ->
             Scheme.run_named name spec ~seed:11 ~warmup:5. ~span:20.));
      let scheme_counters =
        List.filter
          (fun (key, _) -> String.starts_with ~prefix:"scheme." key)
          (Metrics.snapshot registry).Metrics.s_counters
      in
      Alcotest.check
        Alcotest.(list (pair string int))
        (name ^ " scheme counters") expected scheme_counters)
    expected_scheme_counters

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "sources merge" `Quick test_sources_merge;
    Alcotest.test_case "snapshot json round-trip" `Quick
      test_snapshot_json_roundtrip;
    Alcotest.test_case "warnings warn once" `Quick test_warnings_warn_once;
    Alcotest.test_case "profiling timed" `Quick test_profiling_timed;
    Alcotest.test_case "observed runs identical" `Slow
      test_observed_runs_identical;
    Alcotest.test_case "scheme find underscores" `Quick
      test_scheme_find_underscores;
    Alcotest.test_case "shared registry, separate windows" `Quick
      test_shared_registry_separate_windows;
    Alcotest.test_case "scheme counters pinned" `Quick test_scheme_counters_pinned;
  ]
