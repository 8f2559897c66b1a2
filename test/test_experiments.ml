(* Experiment registry and harness tests: every experiment runs in quick
   mode, produces tables, and the deterministic (non-statistical) findings
   hold. *)

module Experiment = Dangers_experiments.Experiment
module Registry = Dangers_experiments.Registry
module Table = Dangers_util.Table
module Scheme = Dangers_experiments.Scheme
module Params = Dangers_analytic.Params
module Connectivity = Dangers_net.Connectivity
module Lazy_group = Dangers_replication.Lazy_group

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_registry_shape () =
  checki "twenty-two experiments" 22 (List.length Registry.all);
  let ids = Registry.ids () in
  checki "unique ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  checkb "lookup case-insensitive" true (Registry.find "e3" <> None);
  checkb "unknown id" true (Registry.find "E99" = None);
  List.iter
    (fun e ->
      checkb (e.Experiment.id ^ " has a title") true
        (String.length e.Experiment.title > 0);
      checkb (e.Experiment.id ^ " cites the paper") true
        (String.length e.Experiment.paper_ref > 0))
    Registry.all

(* Experiments whose findings are deterministic (exact counts, analytic
   identities, monotone booleans) must pass even in quick mode; the
   statistical exponent fits get the full-mode bench run instead. *)
let deterministic = [ "T1"; "F1"; "E9"; "E10"; "E13" ]

let test_quick_runs_all () =
  List.iter
    (fun e ->
      let result = Experiment.run e ~quick:true ~seed:5 in
      checkb (e.Experiment.id ^ " produced tables") true
        (result.Experiment.tables <> []);
      List.iter
        (fun table -> checkb "table renders" true
            (String.length (Table.to_string table) > 0))
        result.Experiment.tables;
      if List.mem e.Experiment.id deterministic then
        List.iter
          (fun f ->
            checkb
              (Printf.sprintf "%s finding '%s' ok" e.Experiment.id
                 f.Experiment.label)
              true (Experiment.finding_ok f))
          result.Experiment.findings)
    Registry.all

let test_experiment_determinism () =
  (* Same seed, same findings, including the statistical ones. *)
  let run () =
    let e = Option.get (Registry.find "E3") in
    let result = Experiment.run e ~quick:true ~seed:9 in
    List.map (fun f -> (f.Experiment.label, f.Experiment.actual))
      result.Experiment.findings
  in
  checkb "identical across runs" true (run () = run ())

let test_helpers () =
  let finding expected actual tolerance =
    { Experiment.label = "x"; expected; actual; tolerance }
  in
  checkb "within tolerance" true (Experiment.finding_ok (finding 3. 3.4 0.5));
  checkb "outside tolerance" false (Experiment.finding_ok (finding 3. 3.6 0.5));
  Alcotest.check (Alcotest.float 1e-9) "mean over runs" 2.
    (Experiment.mean float_of_int [ 1; 2; 3 ]);
  checkb "mean of no runs raises" true
    (match Experiment.mean float_of_int [] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let exponent points = Experiment.exponent "x" ~expected:2. ~tolerance:0.5 points in
  Alcotest.check (Alcotest.float 1e-6) "fitted exponent" 2.
    (exponent [ (1., 1.); (2., 4.); (4., 16.) ]).actual;
  let rare = exponent [ (1., 0.); (2., 4.); (4., -1.) ] in
  checkb "exponent over < 2 positive points is nan" true
    (Float.is_nan rare.actual);
  checkb "a nan exponent is off" false (Experiment.finding_ok rare);
  let yes = Experiment.holds "x" true and no = Experiment.holds "x" false in
  checkb "holds true is 1 of 1, tolerance 0" true
    (yes.actual = 1. && yes.expected = 1. && yes.tolerance = 0.);
  checkb "holds false is 0, tolerance 0" true
    (no.actual = 0. && no.tolerance = 0. && not (Experiment.finding_ok no));
  Alcotest.check (Alcotest.float 1e-9) "ratio" 2.
    (Experiment.ratio "x" ~expected:2. ~tolerance:0. 6. 3.).actual;
  checkb "ratio over a zero denominator is nan, not inf" true
    (Float.is_nan (Experiment.ratio "x" ~expected:1. ~tolerance:1. 5. 0.).actual);
  checkb "near keeps the value" true
    (Experiment.finding_ok (Experiment.near "x" ~expected:0.972 ~tolerance:1e-9 0.972))

(* An invalid connectivity spec must fail before any system is built,
   not from inside the event loop once a stagger offset fires (or, on a
   short run, not at all). *)
let test_invalid_connectivity_rejected () =
  (* A cycle far longer than the run: no stagger offset fires in it. *)
  let mobility =
    { (Connectivity.day_cycle ~connected:10. ~disconnected:1000.) with
      Connectivity.time_between_disconnects = 0. }
  in
  let params = { Params.default with nodes = 3; db_size = 100 } in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun scheme ->
      checkb (scheme ^ " rejects the spec") true
        (raises (fun () ->
             Scheme.run_outcome_named scheme
               (Scheme.spec ~connectivity:mobility params)
               ~seed:1 ~warmup:0. ~span:5.)))
    [ "lazy-group"; "lazy-undo"; "two-tier" ];
  checkb "Lazy_group.create rejects the spec" true
    (raises (fun () -> Lazy_group.create ~mobility params ~seed:1))

let suite =
  [
    Alcotest.test_case "registry shape" `Quick test_registry_shape;
    Alcotest.test_case "quick runs all" `Slow test_quick_runs_all;
    Alcotest.test_case "experiment determinism" `Quick test_experiment_determinism;
    Alcotest.test_case "helpers" `Quick test_helpers;
    Alcotest.test_case "invalid connectivity rejected" `Quick
      test_invalid_connectivity_rejected;
  ]
