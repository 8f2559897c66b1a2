(* Lint engine tests: each rule against its seeded fixture in
   test/lintfx/, the interprocedural DR rules against their seeded
   data-race fixtures, suppression accounting, the exit-code gate
   (including unreadable cmts), and the dangers/lint/v3 report shape.

   The fixtures are a separate library so dune has already produced
   their .cmt files by the time this binary links; the loader scans the
   build tree relative to the test's cwd (_build/default/test). *)

module Loader = Dangers_lint.Loader
module Engine = Dangers_lint.Engine
module Rules = Dangers_lint.Rules
module Rule = Dangers_lint.Rule
module Finding = Dangers_lint.Finding
module Report = Dangers_lint.Report
module Json = Dangers_obs.Json

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let fixture_prefix = "test/lintfx/"
let fixtures = lazy (Loader.load ~build_dir:"." ~prefixes:[ fixture_prefix ])

let results =
  lazy
    (let loaded = Lazy.force fixtures in
     Engine.check_sources ~all_files:true ~rules:Rules.all
       loaded.Loader.sources)

let findings () = fst (Lazy.force results)
let suppressed () = snd (Lazy.force results)

let in_file base f = Filename.basename f.Finding.file = base

let by rule base =
  List.filter
    (fun f -> f.Finding.rule = rule && in_file base f)
    (findings ())

let mentions sub f =
  let m = f.Finding.message and n = String.length sub in
  let rec go i =
    i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
  in
  go 0

let test_loader_finds_fixtures () =
  let loaded = Lazy.force fixtures in
  checki "twelve fixture units" 12 (List.length loaded.Loader.sources);
  checkb "all cmts readable" true (loaded.Loader.unreadable = []);
  checkb "paths keep the build-root prefix" true
    (List.for_all
       (fun (s : Loader.source) ->
         String.length s.Loader.path > String.length fixture_prefix
         && String.sub s.Loader.path 0 (String.length fixture_prefix)
            = fixture_prefix)
       loaded.Loader.sources)

let test_d1_seeded () =
  let fs = by "D1" "fx_d1.ml" in
  checki "four banned calls" 4 (List.length fs);
  checkb "self_init named" true (List.exists (mentions "Random.self_init") fs);
  checkb "gettimeofday named" true
    (List.exists (mentions "Unix.gettimeofday") fs);
  checkb "Sys.time named" true (List.exists (mentions "Sys.time") fs);
  checkb "Hashtbl.hash named" true (List.exists (mentions "Hashtbl.hash") fs);
  checkb "report order follows the file" true
    (let lines = List.map (fun f -> f.Finding.line) fs in
     lines = List.sort compare lines)

let test_d2_seeded () =
  let fs = by "D2" "fx_d2.ml" in
  checki "two iters and the unsorted fold" 3 (List.length fs);
  checkb "iter flagged" true (List.exists (mentions "Hashtbl.iter") fs);
  checkb "unsorted fold flagged" true
    (List.exists (mentions "Hashtbl.fold") fs)

let test_d3_seeded () =
  let fs = by "D3" "fx_d3.ml" in
  checki "float instantiations only" 4 (List.length fs);
  checkb "= flagged twice (direct and through list)" true
    (List.length (List.filter (mentions "polymorphic =") fs) = 2);
  checkb "compare flagged" true
    (List.exists (mentions "polymorphic compare") fs);
  checkb "max flagged" true (List.exists (mentions "polymorphic max") fs)

let test_r1_seeded () =
  let fs = by "R1" "fx_r1.ml" in
  checki "unguarded state incl. nested module" 4 (List.length fs);
  List.iter
    (fun name ->
      checkb (name ^ " named") true (List.exists (mentions ("'" ^ name ^ "'")) fs))
    [ "cache"; "counter"; "lazy_state"; "buf" ]

let test_r1_mutex_guard () =
  checki "mutex-bearing structure is exempt" 0
    (List.length (List.filter (in_file "fx_r1_guarded.ml") (findings ())))

let test_p1_seeded () =
  let fs = by "P1" "fx_p1.ml" in
  checki "all four partials" 4 (List.length fs);
  List.iter
    (fun name ->
      checkb (name ^ " flagged") true (List.exists (mentions name) fs))
    [ "List.hd"; "List.tl"; "List.nth"; "Option.get" ]

let lines fs = List.sort compare (List.map (fun f -> f.Finding.line) fs)
let checkil = Alcotest.check (Alcotest.list Alcotest.int)

let test_dr1_seeded () =
  let fs = by "DR1" "fx_dr1.ml" in
  checkil "five crossings, pinned lines" [ 16; 22; 27; 33; 40 ] (lines fs);
  checkb "local ref capture named" true
    (List.exists (mentions "mutable local 'counter'") fs);
  checkb "parameter read named" true
    (List.exists (mentions "'tasks' is read") fs);
  checkb "pool worker write crosses Domain_pool.parallel_for" true
    (List.exists (mentions "Domain_pool.parallel_for") fs);
  checkb "direct global capture named" true
    (List.exists (mentions "unguarded module-level 'Fx_dr1.journal'") fs);
  checkb "one-hop reach goes through the callee" true
    (List.exists (mentions "calls Fx_dr1.append") fs);
  checkb "the allow-annotated spawn is silent" true
    (List.for_all (fun f -> f.Finding.line <> 46) fs)

let test_dr2_seeded () =
  let fs = by "DR2" "fx_dr2.ml" in
  checkil "three lost updates, pinned lines" [ 6; 10; 13 ] (lines fs);
  checkb "set-over-get named" true
    (List.exists (mentions "Atomic.set over Atomic.get") fs);
  checkb "exchange-over-get named" true
    (List.exists (mentions "Atomic.exchange over Atomic.get") fs);
  checkb "distinct-atomic copy is clean" true
    (List.for_all (fun f -> not (mentions "fine_copy" f)) fs)

let test_dr3_seeded () =
  let fs = by "DR3" "fx_dr3.ml" in
  checkil "five discipline breaks, pinned lines" [ 11; 19; 25; 31; 38 ]
    (lines fs);
  checkb "branch imbalance (if without else) named" true
    (List.exists (mentions "unbalanced across branches") fs);
  checkb "raise while holding named" true
    (List.exists (mentions "failwith while holding 'm'") fs);
  checkb "loop imbalance named" true
    (List.exists (mentions "loop body changes the lock balance") fs);
  checkb "return while holding named" true
    (List.exists (mentions "still holding 'm'") fs);
  checkb "blocking under lock is the one warning" true
    (match List.filter (fun f -> f.Finding.severity = Finding.Warning) fs with
    | [ w ] -> w.Finding.line = 25 && mentions "Unix.sleepf" w
    | _ -> false)

let test_dr4_seeded () =
  let fs = by "DR4" "fx_dr4.ml" in
  checkil "one bidirectional cell, pinned at its definition" [ 5 ] (lines fs);
  checkb "both sides named" true
    (List.exists
       (fun f ->
         mentions "'Fx_dr4.stats'" f
         && mentions "fx_dr4.ml:11" f
         && mentions "'Fx_dr4.record'" f)
       fs);
  checkil "the crossing side carries its own DR1s" [ 11; 16 ]
    (lines (by "DR1" "fx_dr4.ml"));
  checkil "fx_dr1's journal is also bidirectional" [ 30 ]
    (lines (by "DR4" "fx_dr1.ml"))

let test_dr_true_negatives () =
  checki "synchronized sharing produces nothing" 0
    (List.length (List.filter (in_file "fx_dr_clean.ml") (findings ())))

let test_severity_split () =
  let fs = findings () in
  let warnings =
    List.filter (fun f -> f.Finding.severity = Finding.Warning) fs
  in
  checki "exactly one warning (blocking under lock)" 1 (List.length warnings);
  checki "everything else is an error"
    (List.length fs - 1)
    (List.length
       (List.filter (fun f -> f.Finding.severity = Finding.Error) fs))

let test_fail_on_threshold () =
  let warning_only =
    {
      Report.rules = [ "DR3" ];
      sources = 1;
      findings =
        [
          Finding.at ~severity:Finding.Warning ~rule:"DR3" ~file:"x.ml" ~line:1
            ~col:0 ~message:"blocking call under lock" ();
        ];
      suppressed = 0;
      unreadable = [];
    }
  in
  checki "default gate fails on a warning" 1 (Report.exit_code warning_only);
  checki "--fail-on error lets warnings through" 0
    (Report.exit_code ~fail_on:Finding.Error warning_only);
  checki "errors counted" 0 (Report.errors warning_only);
  checki "warnings counted" 1 (Report.warnings warning_only);
  let with_errors =
    Engine.run ~all_files:true ~rules:Rules.all ~build_dir:"."
      ~prefixes:[ fixture_prefix ] ()
  in
  checki "--fail-on error still fails on errors" 1
    (Report.exit_code ~fail_on:Finding.Error with_errors)

let test_suppression_accounting () =
  checki "one allow per rule fixture plus two file-wide" 8 (suppressed ());
  checki "file-wide allow silences the whole unit" 0
    (List.length (List.filter (in_file "fx_filewide.ml") (findings ())))

let test_scope_filter () =
  (* Without all_files the fixtures match no rule's scope (they live
     under test/, the rules watch lib/), so a scoped run is silent. *)
  let loaded = Lazy.force fixtures in
  let fs, supp = Engine.check_sources ~rules:Rules.all loaded.Loader.sources in
  checki "nothing in scope" 0 (List.length fs);
  checki "no suppressions counted" 0 supp

let test_report_json_schema () =
  let report =
    Engine.run ~all_files:true ~rules:Rules.all ~build_dir:"."
      ~prefixes:[ fixture_prefix ] ()
  in
  checkb "fixtures are not clean" false (Report.clean report);
  checki "exit code 1" 1 (Report.exit_code report);
  let json = Report.to_json report in
  checks "schema id" "dangers/lint/v3" (Json.string_of (Json.member "schema" json));
  checki "findings serialized" (List.length report.Report.findings)
    (List.length (Json.list_of (Json.member "findings" json)));
  checki "suppressed count serialized" (suppressed ())
    (Json.int_of (Json.member "suppressed" json));
  checki "errors serialized" (Report.errors report)
    (Json.int_of (Json.member "errors" json));
  checki "warnings serialized" (Report.warnings report)
    (Json.int_of (Json.member "warnings" json));
  checkb "clean flag serialized" true
    (Json.member "clean" json = Json.Bool false)

let test_report_clean_exit () =
  let report =
    Engine.run ~all_files:true ~rules:Rules.all ~build_dir:"."
      ~prefixes:[ fixture_prefix ^ "fx_dr_clean" ] ()
  in
  checki "one source" 1 report.Report.sources;
  checkb "clean fixture run is clean" true (Report.clean report);
  checki "exit code 0" 0 (Report.exit_code report)

(* A cmt the linter cannot read is not a clean file: it fails the gate
   even when no rule fired. *)
let test_unreadable_cmt_fails () =
  let dir = Filename.temp_file "dangers-lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let cmt = Filename.concat dir "x.cmt" in
  let oc = open_out_bin cmt in
  output_string oc "not a cmt file";
  close_out oc;
  let report =
    Engine.run ~rules:Rules.all ~build_dir:dir ~prefixes:[] ()
  in
  Sys.remove cmt;
  Sys.rmdir dir;
  Alcotest.check (Alcotest.list Alcotest.string) "reported unreadable"
    [ cmt ] report.Report.unreadable;
  checkb "not clean" false (Report.clean report);
  checki "fails --fail-on error" 1
    (Report.exit_code ~fail_on:Finding.Error report)

let test_rules_registry () =
  Alcotest.check (Alcotest.list Alcotest.string) "id order"
    [ "D1"; "D2"; "D3"; "R1"; "P1"; "DR1"; "DR2"; "DR3"; "DR4" ]
    (Rules.ids ());
  checkb "lookup is case-insensitive" true
    (match Rules.find "d3" with
    | Some r -> r.Rule.id = "D3"
    | None -> false);
  checkb "dr lookup is case-insensitive" true
    (match Rules.find "dr1" with
    | Some r -> r.Rule.id = "DR1"
    | None -> false);
  checkb "unknown rule is None" true (Rules.find "Z9" = None)

let test_finding_format () =
  match findings () with
  | [] -> Alcotest.fail "fixtures produced no findings"
  | f :: _ ->
      let line = Format.asprintf "%a" Finding.pp f in
      let expected_prefix =
        Printf.sprintf "%s:%d:%d: %s [%s]" f.Finding.file f.Finding.line
          f.Finding.col
          (Finding.severity_to_string f.Finding.severity)
          f.Finding.rule
      in
      checkb "pp is compiler-style" true
        (String.length line >= String.length expected_prefix
        && String.sub line 0 (String.length expected_prefix) = expected_prefix)

let suite =
  [
    Alcotest.test_case "loader finds fixtures" `Quick test_loader_finds_fixtures;
    Alcotest.test_case "D1 flags banned calls" `Quick test_d1_seeded;
    Alcotest.test_case "D2 flags unordered iteration" `Quick test_d2_seeded;
    Alcotest.test_case "D3 flags float compares" `Quick test_d3_seeded;
    Alcotest.test_case "R1 flags unguarded state" `Quick test_r1_seeded;
    Alcotest.test_case "R1 honors a module mutex" `Quick test_r1_mutex_guard;
    Alcotest.test_case "P1 flags partial functions" `Quick test_p1_seeded;
    Alcotest.test_case "DR1 flags unsynchronized crossings" `Quick
      test_dr1_seeded;
    Alcotest.test_case "DR2 flags atomic RMW windows" `Quick test_dr2_seeded;
    Alcotest.test_case "DR3 flags mutex discipline breaks" `Quick
      test_dr3_seeded;
    Alcotest.test_case "DR4 flags bidirectional cells" `Quick test_dr4_seeded;
    Alcotest.test_case "synchronized sharing stays silent" `Quick
      test_dr_true_negatives;
    Alcotest.test_case "severities split errors from warnings" `Quick
      test_severity_split;
    Alcotest.test_case "fail-on threshold gates the exit code" `Quick
      test_fail_on_threshold;
    Alcotest.test_case "suppressions are honored" `Quick
      test_suppression_accounting;
    Alcotest.test_case "rule scopes filter files" `Quick test_scope_filter;
    Alcotest.test_case "report json matches dangers/lint/v3" `Quick
      test_report_json_schema;
    Alcotest.test_case "baselined report exits clean" `Quick
      test_report_clean_exit;
    Alcotest.test_case "unreadable cmt fails the gate" `Quick
      test_unreadable_cmt_fails;
    Alcotest.test_case "rule registry lookup" `Quick test_rules_registry;
    Alcotest.test_case "finding format and key" `Quick test_finding_format;
  ]
