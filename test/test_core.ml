(* Acceptance, Commutative, Tentative, Mobile_node, and Two_tier tests. *)

module Acceptance = Dangers_core.Acceptance
module Commutative = Dangers_core.Commutative
module Tentative = Dangers_core.Tentative
module Mobile_node = Dangers_core.Mobile_node
module Two_tier = Dangers_core.Two_tier

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Connectivity = Dangers_net.Connectivity
module Rng = Dangers_util.Rng
module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let o n = Oid.of_int n

(* --- Acceptance --- *)

let outcome oid tentative base = { Acceptance.oid = o oid; tentative; base }

let test_acceptance_criteria () =
  let ok t outcomes = checkb (Acceptance.name t) true (Acceptance.accept t outcomes) in
  let no t outcomes = checkb (Acceptance.name t) false (Acceptance.accept t outcomes) in
  ok Acceptance.Always [ outcome 0 1. 99. ];
  ok Acceptance.Exact_match [ outcome 0 5. 5. ];
  no Acceptance.Exact_match [ outcome 0 5. 5.1 ];
  ok (Acceptance.Within 0.5) [ outcome 0 5. 5.4 ];
  no (Acceptance.Within 0.5) [ outcome 0 5. 6. ];
  ok Acceptance.Non_negative [ outcome 0 (-3.) 0. ];
  no Acceptance.Non_negative [ outcome 0 3. (-0.01) ];
  ok Acceptance.At_most_tentative [ outcome 0 10. 9. ];
  no Acceptance.At_most_tentative [ outcome 0 10. 11. ];
  ok (Acceptance.All [ Acceptance.Non_negative; Acceptance.Within 1. ])
    [ outcome 0 5. 5.5 ];
  no (Acceptance.All [ Acceptance.Non_negative; Acceptance.Within 1. ])
    [ outcome 0 5. (-0.5) ];
  ok (Acceptance.Custom ("even", fun _ -> true)) [];
  no (Acceptance.Custom ("never", fun _ -> false)) [ outcome 0 1. 1. ]

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_acceptance_explain () =
  (match Acceptance.explain Acceptance.Non_negative [ outcome 3 5. (-2.) ] with
  | Some msg ->
      checkb "mentions the object" true (contains_substring msg "o3");
      checkb "mentions the criterion" true (contains_substring msg "non-negative")
  | None -> Alcotest.fail "must explain the failure");
  checkb "accepted yields no diagnostic" true
    (Acceptance.explain Acceptance.Always [ outcome 0 1. 2. ] = None)

(* --- Commutative --- *)

let test_commutative_constructors () =
  (match Commutative.transfer ~from_:(o 0) ~to_:(o 1) 25. with
  | [ Op.Increment (a, d1); Op.Increment (b, d2) ] ->
      checki "debit account" 0 (Oid.to_int a);
      checki "credit account" 1 (Oid.to_int b);
      checkf "debit" (-25.) d1;
      checkf "credit" 25. d2
  | _ -> Alcotest.fail "transfer shape");
  Alcotest.check_raises "same account"
    (Invalid_argument "Commutative.transfer: same account") (fun () ->
      ignore (Commutative.transfer ~from_:(o 1) ~to_:(o 1) 5.));
  Alcotest.check_raises "negative deposit"
    (Invalid_argument "Commutative.deposit: negative amount") (fun () ->
      ignore (Commutative.deposit (o 0) (-5.)))

let test_commutative_checks () =
  let txns =
    [
      Commutative.deposit (o 0) 10.;
      Commutative.debit (o 0) 4.;
      Commutative.transfer ~from_:(o 0) ~to_:(o 1) 3.;
    ]
  in
  checkb "pairwise commute" true (Commutative.pairwise_commute txns);
  checkb "converges empirically" true
    (Commutative.converges ~rng:(Rng.create ~seed:1) ~db_size:2 ~init:100. txns);
  let with_assign = [ Op.Assign (o 0, 5.) ] :: txns in
  checkb "assign breaks commuting" false (Commutative.pairwise_commute with_assign)

let commutative_convergence_prop =
  QCheck.Test.make ~name:"commutative: increment txns converge in any order"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10)
              (pair (int_range 0 4) (float_range (-20.) 20.)))
    (fun specs ->
      let txns = List.map (fun (i, d) -> [ Op.Increment (o i, d) ]) specs in
      Commutative.converges ~rng:(Rng.create ~seed:7) ~db_size:5 ~init:0. txns)

(* --- Tentative --- *)

let test_tentative_record () =
  let txn =
    Tentative.make ~seq:3 ~origin:5
      ~ops:[ Op.Increment (o 2, 1.); Op.Read (o 4); Op.Increment (o 2, 2.) ]
      ~acceptance:Acceptance.Always
      ~tentative_results:[ (o 2, 3.) ]
      ~committed_at:1.5
  in
  Alcotest.check (Alcotest.list Alcotest.int) "written oids dedup" [ 2 ]
    (List.map Oid.to_int (Tentative.written_oids txn));
  let other =
    Tentative.make ~seq:4 ~origin:5 ~ops:[ Op.Increment (o 2, 5.) ]
      ~acceptance:Acceptance.Always ~tentative_results:[] ~committed_at:2.
  in
  checkb "increments commute" true (Tentative.commutes_with txn other)

(* --- Mobile node --- *)

let test_mobile_node_dual_versions () =
  let m = Mobile_node.create ~node:2 ~db_size:4 ~initial_value:100. in
  let txn =
    Mobile_node.run_tentative m ~ops:[ Op.Increment (o 1, -30.) ]
      ~acceptance:Acceptance.Non_negative ~now:1.0
  in
  checkf "tentative version updated" 70.
    (Fstore.read (Mobile_node.tentative_store m) (o 1));
  checkf "master version untouched" 100.
    (Fstore.read (Mobile_node.master_store m) (o 1));
  checkb "node shows divergence" true (Mobile_node.diverged m);
  checki "queued" 1 (Mobile_node.pending_count m);
  Alcotest.check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "results recorded" [ (1, 70.) ]
    (List.map (fun (oid, v) -> (Oid.to_int oid, v)) txn.Tentative.tentative_results)

let test_mobile_node_refresh_discards () =
  let m = Mobile_node.create ~node:2 ~db_size:2 ~initial_value:0. in
  ignore
    (Mobile_node.run_tentative m ~ops:[ Op.Assign (o 0, 42.) ]
       ~acceptance:Acceptance.Always ~now:0.);
  let base = Fstore.create ~db_size:2 ~init:7. in
  Fstore.write base (o 0) 9. (Timestamp.make ~counter:3 ~node:0);
  Mobile_node.refresh_from m base;
  checkf "tentative discarded" 9. (Fstore.read (Mobile_node.tentative_store m) (o 0));
  checkf "master refreshed" 9. (Fstore.read (Mobile_node.master_store m) (o 0));
  checkb "no divergence" false (Mobile_node.diverged m);
  checki "pending kept for replay" 1 (Mobile_node.pending_count m)

let test_mobile_node_queue_order () =
  let m = Mobile_node.create ~node:1 ~db_size:2 ~initial_value:0. in
  let t1 = Mobile_node.run_tentative m ~ops:[ Op.Increment (o 0, 1.) ]
      ~acceptance:Acceptance.Always ~now:0. in
  let t2 = Mobile_node.run_tentative m ~ops:[ Op.Increment (o 0, 2.) ]
      ~acceptance:Acceptance.Always ~now:1. in
  (match Mobile_node.take_pending m with
  | [ a; b ] ->
      checki "commit order" t1.Tentative.seq a.Tentative.seq;
      checki "commit order" t2.Tentative.seq b.Tentative.seq
  | _ -> Alcotest.fail "two pending");
  Mobile_node.requeue_front m [ t2 ];
  let t3 = Mobile_node.run_tentative m ~ops:[ Op.Increment (o 0, 3.) ]
      ~acceptance:Acceptance.Always ~now:2. in
  (match Mobile_node.pending m with
  | [ a; b ] ->
      checki "requeued first" t2.Tentative.seq a.Tentative.seq;
      checki "new one after" t3.Tentative.seq b.Tentative.seq
  | _ -> Alcotest.fail "two pending after requeue")

(* --- Two-tier --- *)

let tt_params =
  {
    Params.default with
    db_size = 60;
    nodes = 4; (* 2 base + 2 mobile *)
    tps = 3.;
    actions = 2;
    time_between_disconnects = 20.;
    disconnected_time = 40.;
  }

let test_two_tier_connected_behaves_like_lazy_master () =
  let spec = Connectivity.base_node in
  let sys = Two_tier.create ~mobility:spec ~base_nodes:2 tt_params ~seed:1 in
  Two_tier.start sys;
  Common.measure (Two_tier.base sys) ~warmup:2. ~span:10.;
  Two_tier.stop_load sys;
  Two_tier.quiesce_and_sync sys;
  let s = Two_tier.summary sys in
  checkb "base commits" true (s.Repl_stats.commits > 50);
  checki "no tentative work when connected" 0
    (Metrics.total (Two_tier.base sys).Common.stats.Repl_stats.tentative_commits);
  checkb "converged" true (Two_tier.converged sys)

let test_two_tier_tentative_replay_commutative () =
  let profile = Profile.create ~update_kind:Profile.Increments ~actions:2 () in
  let sys =
    Two_tier.create ~profile ~initial_value:1000. ~base_nodes:2 tt_params ~seed:2
  in
  Two_tier.start sys;
  Clock.run_for (Two_tier.base sys).Common.clock 120.;
  Two_tier.quiesce_and_sync sys;
  let stats = (Two_tier.base sys).Common.stats in
  checkb "tentative transactions ran" true
    (Metrics.total stats.Repl_stats.tentative_commits > 10);
  checkb "replays accepted" true (Two_tier.tentative_accepted sys > 10);
  checki "commutative updates: no rejects" 0 (Two_tier.tentative_rejected sys);
  checkb "no system delusion: converged" true (Two_tier.converged sys)

(* Build a 1-base + 1-mobile system whose mobile is disconnected (for a very
   long time) once the engine has run past the connected phase. Generators
   are never started; the test drives transactions by hand. *)
let disconnected_pair ?initial_value ?acceptance ~seed params =
  let params = { params with Params.nodes = 2 } in
  let sys =
    Two_tier.create ?initial_value ?acceptance
      ~mobility:(Connectivity.day_cycle ~connected:5. ~disconnected:1_000_000.)
      ~base_nodes:1 params ~seed
  in
  (* Stagger offset < one cycle, so by this time the mobile is down. *)
  Clock.run (Two_tier.base sys).Common.clock ~until:1_000_010.;
  sys

let test_two_tier_rejection_with_acceptance () =
  (* Mobile tentatively increments an object; the base assigns it meanwhile;
     Exact_match must reject the replay and keep the base consistent. *)
  let sys =
    disconnected_pair ~acceptance:Acceptance.Exact_match ~seed:3 tt_params
  in
  let clock = (Two_tier.base sys).Common.clock in
  Two_tier.submit sys ~node:1 [ Op.Increment (o 5, 10.) ];
  checki "queued as tentative" 1
    (Metrics.total (Two_tier.base sys).Common.stats.Repl_stats.tentative_commits);
  (* The base moves the object while the mobile is away; the base
     transaction holds the lock before the reconnect replay can run. *)
  Two_tier.run_base_transaction sys ~ops:[ Op.Assign (o 5, 999.) ]
    ~on_done:(fun _ -> ()) ();
  ignore clock;
  Two_tier.quiesce_and_sync sys;
  checki "replay rejected" 1 (Two_tier.tentative_rejected sys);
  checki "nothing accepted" 0 (Two_tier.tentative_accepted sys);
  (match Two_tier.rejection_log sys with
  | [ (txn, reason) ] ->
      checki "the right transaction" 0 txn.Tentative.seq;
      checkb "diagnostic mentions drift" true
        (contains_substring reason "differs");
      checkb "diagnostic names criterion" true
        (contains_substring reason "exact-match")
  | _ -> Alcotest.fail "exactly one rejection expected");
  (* The rejected transaction left no trace on the base. *)
  checkf "base kept its value" 999.
    (Fstore.read (Two_tier.base sys).Common.stores.(0) (o 5));
  checkb "no system delusion" true (Two_tier.converged sys)

let test_two_tier_overdraft_rejected () =
  (* The checkbook story: two debits against one balance; the second must
     bounce at the bank. *)
  let params = { tt_params with db_size = 4 } in
  let sys =
    disconnected_pair ~initial_value:1000. ~acceptance:Acceptance.Non_negative
      ~seed:4 params
  in
  (* Mobile is now disconnected; write two tentative debits of 800. *)
  let account = o 1 in
  Two_tier.submit sys ~node:1 (Commutative.debit account 800.);
  Two_tier.submit sys ~node:1 (Commutative.debit account 800.);
  checki "two tentative" 2
    (Metrics.total (Two_tier.base sys).Common.stats.Repl_stats.tentative_commits);
  Two_tier.quiesce_and_sync sys;
  checki "first debit cleared" 1 (Two_tier.tentative_accepted sys);
  checki "second bounced" 1 (Two_tier.tentative_rejected sys);
  checkf "balance reflects one debit" 200.
    (Fstore.read (Two_tier.base sys).Common.stores.(0) account);
  checkb "converged" true (Two_tier.converged sys)

let test_two_tier_scope_rule () =
  let params = { tt_params with nodes = 3; db_size = 30 } in
  let sys =
    Two_tier.create ~base_nodes:1 ~mobile_owned_per_node:5
      ~mobility:Connectivity.base_node params ~seed:5
  in
  (* Objects 20-24 belong to mobile node 1, 25-29 to mobile node 2. *)
  checki "base owns the head" 0 (Two_tier.owner_of sys (o 3));
  checki "mobile 1 block" 1 (Two_tier.owner_of sys (o 22));
  checki "mobile 2 block" 2 (Two_tier.owner_of sys (o 27));
  (* A transaction at node 1 touching node 2's object violates scope. *)
  Two_tier.submit sys ~node:1 [ Op.Increment (o 27, 1.) ];
  checki "scope violation counted" 1
    (Metrics.total (Two_tier.base sys).Common.stats.Repl_stats.scope_violations);
  (* Own-mastered and base-mastered are fine. *)
  Two_tier.submit sys ~node:1 [ Op.Increment (o 22, 1.); Op.Increment (o 3, 1.) ];
  Common.drain (Two_tier.base sys);
  checki "no extra violation" 1
    (Metrics.total (Two_tier.base sys).Common.stats.Repl_stats.scope_violations)

let test_two_tier_mobile_owned_sync () =
  (* The mobile masters a block of objects (step 2 of the reconnect
     protocol): tentative updates to them replay at the base, land on the
     mobile's own master copies, and propagate to base replicas. *)
  let params = { tt_params with nodes = 2; db_size = 10 } in
  let sys =
    Two_tier.create ~initial_value:0. ~base_nodes:1 ~mobile_owned_per_node:3
      ~mobility:(Connectivity.day_cycle ~connected:5. ~disconnected:1_000_000.)
      params ~seed:6
  in
  Clock.run (Two_tier.base sys).Common.clock ~until:1_000_010.;
  (* Objects 7,8,9 are mastered at the mobile (node 1). *)
  checki "tail owned by mobile" 1 (Two_tier.owner_of sys (o 8));
  Two_tier.submit sys ~node:1 [ Op.Increment (o 8, 5.) ]; (* own object *)
  Two_tier.submit sys ~node:1 [ Op.Increment (o 2, 3.) ]; (* base object *)
  Two_tier.quiesce_and_sync sys;
  checki "both replays accepted" 2 (Two_tier.tentative_accepted sys);
  let base_store = (Two_tier.base sys).Common.stores.(0) in
  checkf "mobile-mastered update reached the base replica" 5.
    (Fstore.read base_store (o 8));
  checkf "base-mastered update applied" 3. (Fstore.read base_store (o 2));
  let mobile = Two_tier.mobile sys ~node:1 in
  checkf "mobile's master copy current" 5.
    (Fstore.read (Dangers_core.Mobile_node.master_store mobile) (o 8));
  checkb "converged" true (Two_tier.converged sys);
  checkb "serializable history" true (Two_tier.base_history_serializable sys)

let test_two_tier_determinism () =
  let run () =
    let profile = Profile.create ~update_kind:Profile.Increments ~actions:2 () in
    let sys = Two_tier.create ~profile ~base_nodes:2 tt_params ~seed:42 in
    Two_tier.start sys;
    Clock.run_for (Two_tier.base sys).Common.clock 60.;
    Two_tier.quiesce_and_sync sys;
    let s = Two_tier.summary sys in
    ( s.Repl_stats.commits,
      Two_tier.tentative_accepted sys,
      Two_tier.tentative_rejected sys )
  in
  checkb "same seed, same outcome" true (run () = run ())

let suite =
  [
    Alcotest.test_case "acceptance criteria" `Quick test_acceptance_criteria;
    Alcotest.test_case "acceptance explain" `Quick test_acceptance_explain;
    Alcotest.test_case "commutative constructors" `Quick test_commutative_constructors;
    Alcotest.test_case "commutative checks" `Quick test_commutative_checks;
    QCheck_alcotest.to_alcotest commutative_convergence_prop;
    Alcotest.test_case "tentative record" `Quick test_tentative_record;
    Alcotest.test_case "mobile dual versions" `Quick test_mobile_node_dual_versions;
    Alcotest.test_case "mobile refresh discards" `Quick test_mobile_node_refresh_discards;
    Alcotest.test_case "mobile queue order" `Quick test_mobile_node_queue_order;
    Alcotest.test_case "two-tier connected = lazy master" `Quick
      test_two_tier_connected_behaves_like_lazy_master;
    Alcotest.test_case "two-tier commutative replay" `Quick
      test_two_tier_tentative_replay_commutative;
    Alcotest.test_case "two-tier rejection" `Quick test_two_tier_rejection_with_acceptance;
    Alcotest.test_case "two-tier overdraft rejected" `Quick test_two_tier_overdraft_rejected;
    Alcotest.test_case "two-tier scope rule" `Quick test_two_tier_scope_rule;
    Alcotest.test_case "two-tier mobile-owned sync" `Quick
      test_two_tier_mobile_owned_sync;
    Alcotest.test_case "two-tier determinism" `Quick test_two_tier_determinism;
  ]
