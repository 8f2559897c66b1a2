(* The benchmark's own checks: its order statistics, its regression gate,
   and every workload run end to end at a few percent of its size. *)

open Dangers_bench_e2e

let spec = Spec.load "../../BENCHMARK.json"
let close = Alcotest.float 1e-9

let test_quantiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let check name xs (q1, q2, q3) =
    let a, b, c = Quantiles.quartiles xs in
    Alcotest.check close (name ^ " q1") q1 a;
    Alcotest.check close (name ^ " q2") q2 b;
    Alcotest.check close (name ^ " q3") q3 c
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..5" [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3., 4.5);
  check "two" [ 1.; 2. ] (0.75, 1.5, 2.25);
  check "one" [ 7. ] (7., 7., 7.);
  Alcotest.check close "median odd" 3. (Quantiles.median [ 5.; 1.; 3. ]);
  Alcotest.check close "median even" 2.5 (Quantiles.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "spread" 1.
    (Quantiles.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "p50" 3. (Quantiles.percentile [ 1.; 2.; 3.; 4.; 5. ] ~p:0.5);
  Alcotest.check close "p99" 4.96 (Quantiles.percentile [ 1.; 2.; 3.; 4.; 5. ] ~p:0.99);
  Alcotest.check_raises "empty" (Invalid_argument "Quantiles.median: no values")
    (fun () -> ignore (Quantiles.median []))

let test_bounds () =
  let metric better bound = { Spec.name = "m"; unit_ = "s"; better; bound } in
  let lower = metric Spec.Lower (Some 0.1) and higher = metric Spec.Higher (Some 0.1) in
  Alcotest.check close "slower" 0.2 (Spec.worsening Spec.Lower ~base:1. ~cand:1.2);
  Alcotest.check close "faster" (-0.2) (Spec.worsening Spec.Lower ~base:1. ~cand:0.8);
  Alcotest.check close "less throughput" 0.2
    (Spec.worsening Spec.Higher ~base:10. ~cand:8.);
  Alcotest.(check bool) "within bound" false (Spec.regressed lower ~base:1. ~cand:1.09);
  Alcotest.(check bool) "beyond bound" true (Spec.regressed lower ~base:1. ~cand:1.11);
  Alcotest.(check bool) "better never regresses" false
    (Spec.regressed lower ~base:1. ~cand:0.5);
  Alcotest.(check bool) "higher is better" true
    (Spec.regressed higher ~base:10. ~cand:8.9);
  Alcotest.(check bool) "unbounded" false
    (Spec.regressed (metric Spec.Lower None) ~base:1. ~cand:100.)

let test_spec () =
  let names = List.map (fun m -> m.Spec.name) (spec.end_to_end @ spec.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check (list string)) "workloads are the benchmark's"
    (List.map (fun w -> w.Workload.name) Workload.all)
    spec.workloads;
  let bound m = Option.value ~default:infinity m.Spec.bound in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Spec.name ^ " bound in (0, 0.25]") true
        (bound m > 0. && bound m <= 0.25))
    spec.end_to_end;
  let setup = List.find (fun m -> String.equal m.Spec.name "setup_s") spec.end_to_end in
  List.iter
    (fun m ->
      Alcotest.(check bool) "setup_s has the largest bound" true (bound m <= bound setup))
    spec.end_to_end

(* Each benchmark workload at a few percent of its size, passed as
   arguments; the repetitions re-exec this test binary. *)
let scaled =
  let live mix ~connections =
    Workload.Live
      {
        Live.mix;
        connections;
        transactions = 200;
        nodes = 5;
        base_nodes = 1;
        db_size = 50;
        action_time = 1e-6;
      }
  in
  let sim ?(seeds = 1) ?(domains = 1) scheme ~nodes ~db_size =
    Workload.Sim { Sim.scheme; nodes; db_size; tps = 5.; span = 2.; seeds; domains }
  in
  [
    ("paper-quick", Workload.Paper { Paper.experiments = [ "T1"; "F1" ]; jobs = 2 });
    ("sim-eager-deadlock", sim "eager-group" ~nodes:4 ~db_size:40 ~seeds:2);
    ("sim-lazy-reconcile", sim "lazy-group" ~nodes:5 ~db_size:200);
    ("sim-par-eager", sim "par-eager-group" ~nodes:6 ~db_size:300 ~domains:2);
    ("live-churn", live (Live.Churn { burst = 10 }) ~connections:2);
    ("live-connected", live (Live.Connected { submit_share = 0.8 }) ~connections:1);
  ]

let runs =
  lazy
    (List.map
       (fun (name, kind) ->
         let w = { Workload.name; kind } in
         ( Measure.run ~spec w ~seed:7 ~seconds:0. ~trace:false,
           Measure.run ~spec w ~seed:7 ~seconds:0. ~trace:true ))
       scaled)

let test_workloads () =
  List.iter
    (fun ((untraced : Measure.run), (traced : Measure.run)) ->
      List.iter
        (fun (r : Measure.run) ->
          Alcotest.(check (list string)) (r.workload ^ " checks pass") [] r.failures;
          Alcotest.(check bool) (r.workload ^ " attempted") true (r.attempted > 0))
        [ untraced; traced ];
      List.iter
        (fun (m : Spec.metric) ->
          let emitted ((e : Spec.metric), _) = String.equal e.name m.name in
          match List.find_opt emitted untraced.metrics with
          | Some (_, v) ->
              Alcotest.(check bool)
                (untraced.workload ^ " " ^ m.name ^ " > 0")
                true (v > 0.)
          | None -> Alcotest.failf "%s: %s not emitted" untraced.workload m.name)
        spec.end_to_end;
      Alcotest.(check int) (traced.workload ^ " emits every per-layer metric")
        (List.length spec.per_layer) (List.length traced.metrics))
    (Lazy.force runs)

let test_layer_coverage () =
  let measured =
    List.concat_map
      (fun (_, (r : Measure.run)) ->
        List.map fst (Measure.layer_values ~untraced:r.untraced ~traced:r.traced_reps))
      (Lazy.force runs)
  in
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) (m.name ^ " is measured by some workload") true
        (List.mem m.name measured))
    spec.per_layer

let test_config_round_trip () =
  List.iter
    (fun w ->
      let back = Workload.of_json (Workload.to_json w) in
      Alcotest.(check string) w.Workload.name
        (Dangers_obs.Json.to_string (Workload.to_json w))
        (Dangers_obs.Json.to_string (Workload.to_json back)))
    Workload.all

let () =
  Workload.child_main ();
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "BENCHMARK.json" `Quick test_spec;
          Alcotest.test_case "config round trip" `Quick test_config_round_trip;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "scaled-down runs" `Quick test_workloads;
          Alcotest.test_case "per-layer coverage" `Quick test_layer_coverage;
        ] );
    ]
