(* Benchmark harness.

   Part 1 regenerates every paper table and figure at full fidelity (the
   same output as `dangers experiment`): analytic prediction next to the
   simulator's measurement, plus the pass/fail findings EXPERIMENTS.md
   records.

   Part 2 is a Bechamel micro-benchmark suite: one Test.make per paper
   table/figure (benchmarking the quick-mode regeneration of that
   artifact), plus component benchmarks for the substrates the simulator
   is built from.

   Part 3 times the multicore sweep runner: the quick-mode experiment
   registry serially and at the machine's recommended domain count, checks
   the exports are byte-identical, and writes the numbers to
   BENCH_sweep.json for tooling to pick up.

   Flags: --bench-only skips part 1, --tables-only skips parts 2 and 3,
   --sweep-only runs only part 3. *)

open Bechamel
open Toolkit

module Experiment = Dangers_experiments.Experiment
module Registry = Dangers_experiments.Registry
module Rng = Dangers_util.Rng
module Engine = Dangers_sim.Engine
module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Fstore = Dangers_storage.Store.Fstore
module Version_vector = Dangers_storage.Version_vector
module Mode = Dangers_lock.Mode
module Lock_manager = Dangers_lock.Lock_manager
module Params = Dangers_analytic.Params
module Model = Dangers_analytic.Model
module Profile = Dangers_workload.Profile

(* --- Part 1: regenerate the paper --- *)

let regenerate_all () =
  print_endline
    "======================================================================";
  print_endline
    " Part 1: paper reproduction - every table and figure, model vs system";
  print_endline
    "======================================================================";
  let total_ok = ref 0 and total = ref 0 in
  List.iter
    (fun e ->
      let result = e.Experiment.run ~quick:false ~seed:42 in
      Format.printf "%a@." Experiment.pp_result result;
      List.iter
        (fun f ->
          incr total;
          if Experiment.finding_ok f then incr total_ok)
        result.Experiment.findings)
    Registry.all;
  Printf.printf "findings reproduced: %d / %d\n%!" !total_ok !total

(* --- Part 2: micro-benchmarks --- *)

let experiment_tests =
  List.map
    (fun e ->
      Test.make
        ~name:(Printf.sprintf "experiment/%s" e.Experiment.id)
        (Staged.stage (fun () ->
             ignore (e.Experiment.run ~quick:true ~seed:1))))
    Registry.all

let component_tests =
  let rng = Rng.create ~seed:1 in
  [
    Test.make ~name:"component/rng-bits64"
      (Staged.stage (fun () -> ignore (Rng.bits64 rng)));
    Test.make ~name:"component/engine-1k-events"
      (Staged.stage (fun () ->
           let engine = Engine.create () in
           for i = 1 to 1000 do
             ignore (Engine.schedule engine ~delay:(float_of_int i) ignore)
           done;
           Engine.run engine));
    Test.make ~name:"component/lock-100-acquire-release"
      (Staged.stage (fun () ->
           let m = Lock_manager.create () in
           for owner = 0 to 9 do
             for i = 0 to 9 do
               ignore
                 (Lock_manager.request m ~owner ~resource:((owner * 10) + i)
                    ~mode:Mode.X ~on_grant:ignore)
             done
           done;
           for owner = 0 to 9 do
             Lock_manager.release_all m ~owner
           done));
    Test.make ~name:"component/store-1k-write-read"
      (Staged.stage
         (let store = Fstore.create ~db_size:1000 ~init:(fun _ -> 0.) in
          let stamp = { Timestamp.counter = 1; node = 0 } in
          fun () ->
            for i = 0 to 999 do
              Fstore.write store (Oid.of_int i) (float_of_int i) stamp;
              ignore (Fstore.read store (Oid.of_int i))
            done));
    Test.make ~name:"component/version-vector-merge"
      (Staged.stage
         (let a = Version_vector.of_list [ (0, 5); (1, 3); (2, 9) ] in
          let b = Version_vector.of_list [ (0, 2); (1, 7); (3, 1) ] in
          fun () -> ignore (Version_vector.merge a b)));
    Test.make ~name:"component/analytic-predict-all"
      (Staged.stage (fun () ->
           List.iter
             (fun scheme -> ignore (Model.predict scheme Params.default))
             Model.all_schemes));
    Test.make ~name:"component/workload-generate-txn"
      (Staged.stage
         (let profile = Profile.create ~actions:4 () in
          fun () -> ignore (Profile.generate profile rng ~db_size:1000)));
  ]

(* Simulator throughput: how much wall-clock it costs to simulate 5 seconds
   of each scheme at a common parameter point. *)
let scheme_tests =
  let module Params = Dangers_analytic.Params in
  let module Scheme = Dangers_experiments.Scheme in
  let params =
    { Params.default with db_size = 400; nodes = 3; tps = 5.; actions = 4 }
  in
  let spec = Scheme.spec ~base_nodes:1 params in
  List.map
    (fun scheme ->
      Test.make
        ~name:("scheme/" ^ Scheme.name scheme ^ "-5-sim-seconds")
        (Staged.stage (fun () ->
             ignore (Scheme.run scheme spec ~seed:1 ~warmup:0. ~span:5.))))
    Scheme.all

let run_benchmarks () =
  print_endline "";
  print_endline
    "======================================================================";
  print_endline " Part 2: Bechamel micro-benchmarks";
  print_endline
    "======================================================================";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let tests = component_tests @ scheme_tests @ experiment_tests in
  Printf.printf "%-40s %15s %10s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 67 '-');
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let benchmark = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Instance.monotonic_clock benchmark in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some [ x ] -> x
            | Some _ | None -> Float.nan
          in
          let r2 =
            match Analyze.OLS.r_square result with
            | Some r -> r
            | None -> Float.nan
          in
          let human ns =
            if ns < 1e3 then Printf.sprintf "%.1f ns" ns
            else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else Printf.sprintf "%.2f s" (ns /. 1e9)
          in
          Printf.printf "%-40s %15s %10.4f\n%!" (Test.Elt.name elt)
            (human estimate) r2)
        (Test.elements test))
    tests

(* --- Part 3: multicore sweep runner --- *)

let bench_sweep () =
  let module Sweep = Dangers_runner.Sweep in
  let module Export = Dangers_runner.Export in
  let module Task_pool = Dangers_runner.Task_pool in
  print_endline "";
  print_endline
    "======================================================================";
  print_endline " Part 3: sweep runner - serial vs multicore, identical output";
  print_endline
    "======================================================================";
  let tasks = Sweep.experiment_tasks ~quick:true Registry.all ~seeds:[ 42 ] in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let items = Sweep.run ~jobs tasks in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Export.to_jsonl (List.map Export.record_of_item items))
  in
  let host_cores = Task_pool.host_cores () in
  let jobs = Task_pool.default_jobs () in
  let serial_seconds, serial_out = timed 1 in
  let parallel_seconds, parallel_out = timed jobs in
  let identical = String.equal serial_out parallel_out in
  let speedup = serial_seconds /. parallel_seconds in
  (* An observed pass over the same tasks: per-task wall-clock and
     allocation profiles for the report, and a cross-check that observing
     does not change results. *)
  let observed = Sweep.run_observed ~jobs tasks in
  let observed_out =
    Export.to_jsonl (List.map (fun (item, _) -> Export.record_of_item item) observed)
  in
  let observed_identical = String.equal serial_out observed_out in
  let task_profiles =
    Export.Arr
      (List.map
         (fun (_, o) ->
           match Dangers_obs.Profiling.to_json o.Sweep.o_profile with
           | Export.Obj fields ->
               Export.Obj
                 (fields @ [ ("seed", Export.Num (float_of_int o.Sweep.o_seed)) ])
           | j -> j)
         observed)
  in
  let json =
    Export.(
      json_to_string
        (Obj
           [
             ("benchmark", Str "sweep-quick-experiment-registry");
             ("tasks", Num (float_of_int (List.length tasks)));
             ("host_cores", Num (float_of_int host_cores));
             ("jobs", Num (float_of_int jobs));
             ("serial_seconds", json_of_float serial_seconds);
             ("parallel_seconds", json_of_float parallel_seconds);
             ("speedup", json_of_float speedup);
             ("identical", Bool identical);
             ("observed_identical", Bool observed_identical);
             ("task_profiles", task_profiles);
           ]))
  in
  let oc = open_out "BENCH_sweep.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  Printf.printf
    "%d tasks: %.2fs at --jobs 1, %.2fs at --jobs %d (%.2fx), outputs %s\n\
     wrote BENCH_sweep.json\n\
     %!"
    (List.length tasks) serial_seconds parallel_seconds jobs speedup
    (if identical then "byte-identical" else "DIFFER");
  if not identical then exit 1

let () =
  let bench_only = Array.exists (String.equal "--bench-only") Sys.argv in
  let tables_only = Array.exists (String.equal "--tables-only") Sys.argv in
  let sweep_only = Array.exists (String.equal "--sweep-only") Sys.argv in
  if (not bench_only) && not sweep_only then regenerate_all ();
  if (not tables_only) && not sweep_only then run_benchmarks ();
  if not tables_only then bench_sweep ()
