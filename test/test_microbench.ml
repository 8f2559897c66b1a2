(* Micro-benchmark harness tests: statistics, the BENCH_micro.json schema
   round-trip, the regression comparator's verdicts, and the suite's tie
   to the bench/e2e per-layer metrics. *)

module Harness = Dangers_microbench.Harness
module Bench_file = Dangers_microbench.Bench_file
module Compare = Dangers_microbench.Compare
module Suite = Dangers_microbench.Suite
module Json = Dangers_obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_stats_of_samples () =
  let s =
    Harness.of_samples ~name:"s" ~warmup:2 ~runs:3
      [| 30.; 10.; 20.; 40.; 50. |]
  in
  checkf "mean" 30. s.Harness.mean;
  checkf "p50" 30. s.Harness.p50;
  checkf "min" 10. s.Harness.min;
  checkf "max" 50. s.Harness.max;
  (* sample stddev of 10..50 step 10 *)
  checkf "stddev" (sqrt 250.) s.Harness.stddev;
  (* p99 sits between the two largest samples: rank 3.96 of [0..4] *)
  checkf "p99" 49.6 s.Harness.p99;
  checki "samples recorded" 5 s.Harness.s_samples

let test_percentile_interpolation () =
  let xs = [| 0.; 100. |] in
  checkf "p0" 0. (Harness.percentile xs 0.);
  checkf "p50 interpolates" 50. (Harness.percentile xs 50.);
  checkf "p100" 100. (Harness.percentile xs 100.);
  checkf "single sample" 7. (Harness.percentile [| 7. |] 99.)

let test_harness_runs () =
  let hits = ref 0 in
  let stats =
    Harness.run (Harness.bench ~warmup:1 ~samples:4 ~runs:2 "spin" (fun () -> incr hits))
  in
  (* warmup batch + 4 sample batches, 2 runs each *)
  checki "all batches executed" 10 !hits;
  checkb "timings non-negative" true (stats.Harness.min >= 0.);
  checkb "min <= mean <= max" true
    (stats.Harness.min <= stats.Harness.mean
    && stats.Harness.mean <= stats.Harness.max);
  Alcotest.check (Alcotest.option (Alcotest.float 0.))
    "incrementing a counter allocates nothing" (Some 0.) stats.Harness.words

(* Each run of a closure that conses one 2-field cell allocates 3 words. *)
let test_harness_counts_words () =
  let n = ref 0 and sink = ref [] in
  let stats =
    Harness.run
      (Harness.bench ~warmup:0 ~samples:3 ~runs:4 "cons" (fun () ->
           incr n;
           sink := [ !n ]))
  in
  Alcotest.check (Alcotest.option (Alcotest.float 0.)) "words per run"
    (Some 3.) stats.Harness.words

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

let sample_stats name mean =
  {
    Harness.s_name = name;
    s_warmup = 3;
    s_samples = 10;
    s_runs = 5;
    mean;
    stddev = mean /. 100.;
    p50 = mean;
    p99 = mean *. 1.1;
    min = mean *. 0.9;
    max = mean *. 1.2;
    words = Some (mean /. 10.);
  }

let test_schema_round_trip () =
  let file =
    {
      Bench_file.host_cores = 4;
      quick = false;
      benchmarks = [ sample_stats "a/b" 123.456; sample_stats "c" 1e9 ];
    }
  in
  let json = Json.to_string (Bench_file.to_json file) in
  let back = Bench_file.of_json (Json.of_string json) in
  checkb "round-trips exactly" true (back = file);
  (* A file written before words were recorded lacks the field and
     still loads. *)
  let legacy =
    { file with benchmarks = [ { (sample_stats "a/b" 1.) with Harness.words = None } ] }
  in
  let json = Json.to_string (Bench_file.to_json legacy) in
  checkb "no words field" false
    (contains json "minor_words_per_run");
  checkb "loads without it" true
    (Bench_file.of_json (Json.of_string json) = legacy);
  Alcotest.check_raises "wrong schema rejected"
    (Json.Parse_error "bench-micro: unsupported schema nope") (fun () ->
      ignore (Bench_file.of_json (Json.Obj [ ("schema", Json.Str "nope") ])))

let compare_files old_means new_means =
  let file benchmarks =
    { Bench_file.host_cores = 1; quick = true;
      benchmarks = List.map (fun (n, m) -> sample_stats n m) benchmarks }
  in
  Compare.diff ~threshold:0.20 (file old_means) (file new_means)

let test_compare_flags_regression () =
  (* +25% mean regresses past a 20% threshold; +10% does not. *)
  let report =
    compare_files
      [ ("lock", 100.); ("engine", 200.); ("e2e", 1000.) ]
      [ ("lock", 125.); ("engine", 210.); ("e2e", 700.) ]
  in
  checki "one regression" 1 (List.length report.Compare.regressions);
  checkb "names the regressed bench" true
    ((List.hd report.Compare.regressions).Compare.name = "lock");
  checki "one improvement" 1 (List.length report.Compare.improvements);
  checki "one stable" 1 (List.length report.Compare.stable);
  checkb "overall verdict fails" false (Compare.ok report)

(* The words per run are printed beside the times, and do not move the
   verdict: the regressed words of a stable time leave it ok. *)
let test_compare_reports_words () =
  let report = compare_files [ ("lock", 100.) ] [ ("lock", 101.) ] in
  let report =
    { report with
      Compare.stable =
        List.map (fun c -> { c with Compare.words = Some (10., 130.) }) report.Compare.stable }
  in
  let printed = Format.asprintf "%a" Compare.print report in
  checkb "words delta printed" true (contains printed "words 10 -> 130 (+120)");
  checkb "words are not judged" true (Compare.ok report)

let test_compare_ok_within_threshold () =
  let report =
    compare_files
      [ ("lock", 100.); ("engine", 200.) ]
      [ ("lock", 110.); ("engine", 190.) ]
  in
  checkb "10% drift passes at 20%" true (Compare.ok report);
  checki "no regressions" 0 (List.length report.Compare.regressions)

let test_compare_missing_bench_tolerated () =
  let before = Dangers_obs.Warnings.count ~key:"bench.compare.missing" in
  let report = compare_files [ ("lock", 100.); ("gone", 50.) ] [ ("lock", 100.) ] in
  checkb "lost coverage no longer fails the check" true (Compare.ok report);
  Alcotest.check (Alcotest.list Alcotest.string) "names the lost bench"
    [ "gone" ] report.Compare.only_old;
  checki "registers a warn-once for the lost bench" (before + 1)
    (Dangers_obs.Warnings.count ~key:"bench.compare.missing");
  let report2 = compare_files [ ("lock", 100.) ] [ ("lock", 100.); ("extra", 9.) ] in
  checkb "new benches are fine" true (Compare.ok report2);
  checki "new-only benches do not warn" (before + 1)
    (Dangers_obs.Warnings.count ~key:"bench.compare.missing");
  (* A regression still fails even when benches are also missing. *)
  let report3 =
    compare_files [ ("lock", 100.); ("gone", 50.) ] [ ("lock", 150.) ]
  in
  checkb "regressions still fail" false (Compare.ok report3)

(* Every component case explains one bench/e2e metric: a per-layer one,
   or an end-to-end one for a cost no layer records (building the
   replicas is most of [setup_s]). End-to-end numbers come from bench/e2e
   alone. *)
let test_cases_explain_per_layer_metrics () =
  let benchmark =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all
    |> Json.of_string
  in
  let names section =
    Json.member section benchmark |> Json.list_of
    |> List.map (fun m -> Json.string_of (Json.member "name" m))
  in
  let metrics = names "per_layer" @ names "end_to_end" in
  List.iter
    (fun (c : Suite.case) ->
      let name = Harness.name c.Suite.bench in
      checkb (name ^ " is a component case") false
        (String.starts_with ~prefix:"e2e/" name);
      checkb
        (Printf.sprintf "%s explains benchmark metric %s" name c.Suite.explains)
        true
        (List.mem c.Suite.explains metrics))
    (Suite.cases ~quick:true)

let suite =
  [
    Alcotest.test_case "stats of samples" `Quick test_stats_of_samples;
    Alcotest.test_case "percentile interpolation" `Quick
      test_percentile_interpolation;
    Alcotest.test_case "harness runs warmup and samples" `Quick
      test_harness_runs;
    Alcotest.test_case "harness counts words" `Quick test_harness_counts_words;
    Alcotest.test_case "schema round trip" `Quick test_schema_round_trip;
    Alcotest.test_case "compare flags 25% regression" `Quick
      test_compare_flags_regression;
    Alcotest.test_case "compare reports words" `Quick test_compare_reports_words;
    Alcotest.test_case "compare passes 10% drift" `Quick
      test_compare_ok_within_threshold;
    Alcotest.test_case "compare tolerates lost bench" `Quick
      test_compare_missing_bench_tolerated;
    Alcotest.test_case "cases explain per-layer metrics" `Quick
      test_cases_explain_per_layer_metrics;
  ]
