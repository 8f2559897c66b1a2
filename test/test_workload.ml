(* Profile, Generator, Scenario tests. *)

module Profile = Dangers_workload.Profile
module Generator = Dangers_workload.Generator
module Scenario = Dangers_workload.Scenario
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Engine = Dangers_sim.Engine
module Rng = Dangers_util.Rng
module Params = Dangers_analytic.Params

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_profile_generates_distinct () =
  let profile = Profile.create ~actions:5 () in
  let sampler = Profile.sampler profile ~db_size:20 in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    let ops = Profile.draw sampler rng in
    checki "five ops" 5 (List.length ops);
    let oids = List.map (fun op -> Oid.to_int (Op.oid op)) ops in
    checki "distinct objects" 5 (List.length (List.sort_uniq Int.compare oids))
  done

let test_profile_kinds () =
  let rng = Rng.create ~seed:2 in
  let all_assigns =
    Profile.draw
      (Profile.sampler (Profile.create ~update_kind:Profile.Assigns ~actions:4 ())
         ~db_size:100)
      rng
  in
  checkb "assigns only" true
    (List.for_all (function Op.Assign _ -> true | Op.Increment _ | Op.Read _ | Op.Assign_from _ -> false) all_assigns);
  let all_incs =
    Profile.draw
      (Profile.sampler (Profile.create ~update_kind:Profile.Increments ~actions:4 ())
         ~db_size:100)
      rng
  in
  checkb "increments only" true
    (List.for_all (function Op.Increment _ -> true | Op.Assign _ | Op.Read _ | Op.Assign_from _ -> false) all_incs);
  checkb "increment profile commutative" true
    (Profile.commutative (Profile.create ~update_kind:Profile.Increments ~actions:2 ()));
  checkb "assign profile not commutative" false
    (Profile.commutative (Profile.create ~actions:2 ()))

let test_profile_mixed_fraction () =
  let rng = Rng.create ~seed:3 in
  let sampler =
    Profile.sampler (Profile.create ~update_kind:(Profile.Mixed 0.5) ~actions:1 ())
      ~db_size:50
  in
  let incs = ref 0 and total = 2000 in
  for _ = 1 to total do
    match Profile.draw sampler rng with
    | [ Op.Increment _ ] -> incr incs
    | [ Op.Assign _ ] -> ()
    | _ -> Alcotest.fail "one op expected"
  done;
  let fraction = float_of_int !incs /. float_of_int total in
  checkb "mixed fraction near 0.5" true (Float.abs (fraction -. 0.5) < 0.05)

let test_profile_zipf_skews () =
  let rng = Rng.create ~seed:4 in
  let sampler =
    Profile.sampler (Profile.create ~access:(Profile.Zipf 0.9) ~actions:1 ())
      ~db_size:100
  in
  let counts = Array.make 100 0 in
  for _ = 1 to 3000 do
    match Profile.draw sampler rng with
    | [ op ] ->
        let i = Oid.to_int (Op.oid op) in
        counts.(i) <- counts.(i) + 1
    | _ -> Alcotest.fail "one op expected"
  done;
  checkb "hot head" true (counts.(0) > counts.(70))

let test_profile_validation () =
  Alcotest.check_raises "actions > db_size"
    (Invalid_argument "Profile.sampler: actions exceed db_size") (fun () ->
      ignore (Profile.sampler (Profile.create ~actions:10 ()) ~db_size:5));
  Alcotest.check_raises "zipf theta 1"
    (Invalid_argument "Profile.create: Zipf theta must not be 1") (fun () ->
      ignore (Profile.create ~access:(Profile.Zipf 1.0) ~actions:1 ()));
  Alcotest.check_raises "bad mixed fraction"
    (Invalid_argument "Profile.create: Mixed fraction outside [0,1]") (fun () ->
      ignore (Profile.create ~update_kind:(Profile.Mixed 1.5) ~actions:1 ()))

let test_generator_rate () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let submitted = ref 0 in
  let generator =
    Generator.start ~clock:engine ~rng ~tps:10. ~profile:(Profile.create ~actions:2 ())
      ~db_size:100
      ~submit:(fun ops ->
        checki "ops per txn" 2 (List.length ops);
        incr submitted)
  in
  Engine.run engine ~until:200.;
  Generator.stop generator;
  (* 10 TPS x 200 s = 2000 expected; Poisson sd ~ 45. *)
  checkb "rate near 2000" true (abs (!submitted - 2000) < 200);
  checki "generated counter" !submitted (Generator.generated generator);
  let before = !submitted in
  Engine.run engine;
  checki "stop is effective" before !submitted

let test_scenarios () =
  checki "four scenarios" 4 (List.length Scenario.all);
  (match Scenario.find "checkbook" with
  | Some s ->
      Params.validate s.Scenario.params;
      checkb "replicated at three places" true (s.Scenario.params.Params.nodes = 3)
  | None -> Alcotest.fail "checkbook scenario missing");
  checkb "unknown scenario" true (Scenario.find "nope" = None);
  List.iter (fun s -> Params.validate s.Scenario.params) Scenario.all

let test_tpcb_profile () =
  let profile =
    Profile.create ~update_kind:Profile.Increments
      ~access:(Profile.Tpcb { branches = 5; tellers_per_branch = 4 })
      ~actions:3 ()
  in
  let rng = Rng.create ~seed:9 in
  let sampler = Profile.sampler profile ~db_size:(5 + 20 + 100) in
  for _ = 1 to 200 do
    match Profile.draw sampler rng with
    | [ account; teller; branch ] ->
        let region op lo hi =
          let i = Oid.to_int (Op.oid op) in
          checkb "region" true (i >= lo && i < hi)
        in
        region branch 0 5;
        region teller 5 25;
        region account 25 125;
        (* teller belongs to the branch *)
        let b = Oid.to_int (Op.oid branch) in
        let t = Oid.to_int (Op.oid teller) - 5 in
        checki "teller in branch" b (t / 4);
        checkb "all increments" true
          (List.for_all
             (function Op.Increment _ -> true | _ -> false)
             [ account; teller; branch ])
    | _ -> Alcotest.fail "three ops expected"
  done;
  Alcotest.check_raises "tpcb regions must fit"
    (Invalid_argument "Profile.sampler: Tpcb db too small") (fun () ->
      ignore (Profile.sampler profile ~db_size:(5 + 20)));
  Alcotest.check_raises "tpcb needs 3 actions"
    (Invalid_argument "Profile.create: Tpcb requires exactly 3 actions")
    (fun () ->
      ignore
        (Profile.create
           ~access:(Profile.Tpcb { branches = 2; tellers_per_branch = 2 })
           ~actions:2 ()))

let test_tpcb_regions () =
  let layout = Profile.tpcb_regions ~branches:3 ~tellers_per_branch:2 ~db_size:20 in
  checki "branch 0" 0 (Oid.to_int (layout (`Branch 0)));
  checki "teller 0" 3 (Oid.to_int (layout (`Teller 0)));
  checki "account 0" 9 (Oid.to_int (layout (`Account 0)));
  Alcotest.check_raises "branch out of range"
    (Invalid_argument "Profile.tpcb_regions: branch") (fun () ->
      ignore (layout (`Branch 3)))

let suite =
  [
    Alcotest.test_case "tpcb profile" `Quick test_tpcb_profile;
    Alcotest.test_case "tpcb regions" `Quick test_tpcb_regions;
    Alcotest.test_case "profile distinct objects" `Quick test_profile_generates_distinct;
    Alcotest.test_case "profile update kinds" `Quick test_profile_kinds;
    Alcotest.test_case "profile mixed fraction" `Quick test_profile_mixed_fraction;
    Alcotest.test_case "profile zipf skew" `Quick test_profile_zipf_skews;
    Alcotest.test_case "profile validation" `Quick test_profile_validation;
    Alcotest.test_case "generator poisson rate" `Quick test_generator_rate;
    Alcotest.test_case "scenarios" `Quick test_scenarios;
  ]
