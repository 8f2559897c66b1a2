(* The multicore sweep runner: task-pool semantics, the determinism
   guarantee the CLI advertises (--jobs N output byte-identical to
   --jobs 1), and the export codecs. *)

module Task_pool = Dangers_runner.Task_pool
module Sweep = Dangers_runner.Sweep
module Export = Dangers_runner.Export
module Registry = Dangers_experiments.Registry
module Scheme = Dangers_experiments.Scheme
module Params = Dangers_analytic.Params
module Repl_stats = Dangers_replication.Repl_stats

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

(* --- Task_pool --- *)

let test_pool_order_preserved () =
  let tasks = Array.init 100 Fun.id in
  let serial = Task_pool.map ~jobs:1 ~f:(fun i -> i * i) tasks in
  let parallel = Task_pool.map ~jobs:4 ~f:(fun i -> i * i) tasks in
  checkb "order preserved" true (serial = parallel);
  checki "last slot" (99 * 99) parallel.(99)

let test_pool_empty_and_singleton () =
  checki "empty" 0 (Array.length (Task_pool.map ~jobs:4 ~f:succ [||]));
  checkb "singleton" true (Task_pool.map ~jobs:4 ~f:succ [| 1 |] = [| 2 |])

let test_pool_propagates_error () =
  let boom i = if i = 3 then failwith "boom" else i in
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore (Task_pool.map ~jobs:4 ~f:boom (Array.init 8 Fun.id)))

let test_pool_lowest_failure_and_every_task_runs () =
  let ran = Atomic.make 0 in
  let boom i =
    Atomic.incr ran;
    if i = 2 || i = 6 then failwith (string_of_int i) else i
  in
  Alcotest.check_raises "lowest-indexed failure" (Failure "2") (fun () ->
      ignore (Task_pool.map ~jobs:3 ~f:boom (Array.init 9 Fun.id)));
  checki "every task ran" 9 (Atomic.get ran)

let test_pool_inline_at_one_job () =
  let self = Domain.self () in
  let domains = Task_pool.map ~jobs:1 ~f:(fun _ -> Domain.self ()) [| 1; 2; 3 |] in
  checkb "jobs=1 runs on the calling domain" true
    (Array.for_all (fun d -> d = self) domains)

(* The domain pool refuses more than 128 workers; [map] caps its request. *)
let test_pool_jobs_above_domain_limit () =
  let tasks = Array.init 200 Fun.id in
  checkb "jobs=500 over 200 tasks" true
    (Task_pool.map ~jobs:500 ~f:succ tasks = Array.map succ tasks)

(* --- Determinism: parallel sweep equals serial, byte for byte --- *)

let jsonl_of_items items =
  Export.to_jsonl (List.map Export.record_of_item items)

let test_sweep_experiments_deterministic () =
  let tasks =
    Sweep.experiment_tasks ~quick:true Registry.all ~seeds:[ 42 ]
  in
  let serial = jsonl_of_items (Sweep.run ~jobs:1 tasks) in
  let parallel = jsonl_of_items (Sweep.run ~jobs:4 tasks) in
  checks "jobs=4 byte-identical to jobs=1" serial parallel

let test_sweep_schemes_deterministic () =
  let params =
    { Params.default with db_size = 300; nodes = 3; tps = 4.; actions = 3 }
  in
  let tasks =
    Sweep.scheme_tasks ~warmup:1. ~span:10. ~seeds:[ 7; 108 ]
      ~specs:[ Scheme.spec params ]
      (Scheme.names ())
  in
  let serial = jsonl_of_items (Sweep.run ~jobs:1 tasks) in
  let parallel = jsonl_of_items (Sweep.run ~jobs:4 tasks) in
  checks "scheme grid byte-identical" serial parallel

let test_sweep_unknown_names_rejected () =
  let unknown = Sweep.Experiment_task { id = "EX99"; quick = true; seed = 1 } in
  checkb "unknown experiment raises" true
    (match Sweep.run_task unknown with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Export codecs --- *)

let sample_records () =
  let tasks =
    Sweep.experiment_tasks ~quick:true
      (List.filteri (fun i _ -> i < 2) Registry.all)
      ~seeds:[ 5 ]
    @ Sweep.scheme_tasks ~warmup:1. ~span:5. ~seeds:[ 5 ]
        ~specs:[ Scheme.spec Params.default ]
        [ "lazy-group"; "two-tier" ]
  in
  List.map Export.record_of_item (Sweep.run tasks)

let test_jsonl_round_trip () =
  let jsonl = Export.to_jsonl (sample_records ()) in
  checks "to_jsonl . of_jsonl = id" jsonl (Export.to_jsonl (Export.of_jsonl jsonl))

let test_json_value_round_trip () =
  List.iter
    (fun s ->
      checks "canonical json round-trips" s
        Export.(json_to_string (json_of_string s)))
    [
      {|{"a":[1,2.5,-3e-05],"b":"x\"y\\z","c":[true,false,null],"d":{}}|};
      {|"é\t\n"|};
      "[]";
    ]

let test_float_round_trip () =
  List.iter
    (fun f ->
      let back = Export.(float_of_json (json_of_float f)) in
      checkb (Printf.sprintf "%h survives" f) true
        (Float.equal back f || (Float.is_nan f && Float.is_nan back)))
    [ 0.; -0.; 1.5; 0.1; 1e300; 4e-12; Float.nan; Float.infinity;
      Float.neg_infinity; 0.041666666666666664 ]

let test_csv_shape () =
  let csv = Export.to_csv (sample_records ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  let header = List.hd lines in
  checkb "header leads with kind,id,seed" true
    (String.length header > 12 && String.sub header 0 12 = "kind,id,seed");
  let cols = List.length (String.split_on_char ',' header) in
  List.iter
    (fun line ->
      (* Diagnostics cells are k=v;k2=v2 — no commas — so a raw split is a
         faithful column count for the rows we emit. *)
      checki ("columns: " ^ line) cols
        (List.length (String.split_on_char ',' line)))
    lines

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_order_preserved;
    Alcotest.test_case "pool edge sizes" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "pool propagates error" `Quick test_pool_propagates_error;
    Alcotest.test_case "pool re-raises lowest failure" `Quick
      test_pool_lowest_failure_and_every_task_runs;
    Alcotest.test_case "pool inline at one job" `Quick test_pool_inline_at_one_job;
    Alcotest.test_case "pool jobs above domain limit" `Quick
      test_pool_jobs_above_domain_limit;
    Alcotest.test_case "experiment sweep deterministic across jobs" `Slow
      test_sweep_experiments_deterministic;
    Alcotest.test_case "scheme sweep deterministic across jobs" `Slow
      test_sweep_schemes_deterministic;
    Alcotest.test_case "unknown task names rejected" `Quick
      test_sweep_unknown_names_rejected;
    Alcotest.test_case "jsonl round-trip" `Slow test_jsonl_round_trip;
    Alcotest.test_case "json value round-trip" `Quick test_json_value_round_trip;
    Alcotest.test_case "float round-trip" `Quick test_float_round_trip;
    Alcotest.test_case "csv shape" `Slow test_csv_shape;
  ]
