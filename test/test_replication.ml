(* Integration tests for the four baseline replication schemes, plus the
   pure reconciliation / convergence / quorum models. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Fstore = Dangers_storage.Store.Fstore
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Connectivity = Dangers_net.Connectivity

module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Eager_group = Dangers_replication.Eager_group
module Eager_impl = Dangers_replication.Eager_impl
module Lazy_group = Dangers_replication.Lazy_group
module Lazy_master = Dangers_replication.Lazy_master
module Reconcile = Dangers_replication.Reconcile
module Convergence = Dangers_replication.Convergence
module Quorum = Dangers_replication.Quorum

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let o n = Oid.of_int n

let small_params =
  { Params.default with db_size = 50; nodes = 3; tps = 5.; actions = 3 }

let stores_converged stores =
  Array.for_all (fun s -> Fstore.content_equal stores.(0) s) stores

(* --- Eager group --- *)

let test_eager_group_replicates () =
  let sys = Eager_group.create small_params ~seed:1 in
  Eager_group.submit sys ~node:0 [ Op.Assign (o 7, 42.) ];
  Common.drain (Eager_group.base sys);
  let stores = (Eager_group.base sys).Common.stores in
  Array.iter (fun s -> checkf "replica updated" 42. (Fstore.read s (o 7))) stores;
  checkb "replicas identical" true (stores_converged stores);
  checki "one commit" 1
    (Metrics.total (Eager_group.base sys).Common.stats.Repl_stats.commits)

(* Eager-group under a random transport delay: every attempt draws its
   remote steps' extra cost afresh, between the previous deadlock's
   backoff draw and the next. Summary counts, the mean duration and the
   store contents are pinned bit for bit. *)
let test_eager_group_uniform_delay_pinned () =
  let params = { Params.default with db_size = 60; nodes = 3; actions = 3 } in
  let sys =
    Eager_impl.create
      ~delay:(Dangers_runtime.Delay.Uniform { lo = 0.002; hi = 0.03 })
      Eager_impl.Group params ~seed:42
  in
  let base = Eager_impl.base sys in
  Eager_impl.start sys;
  Common.measure base ~warmup:1. ~span:10.;
  let s = Eager_impl.summary sys in
  Eager_impl.stop_load sys;
  let sum = ref 0. in
  Array.iter
    (fun store -> Fstore.iter store (fun _ v _ -> sum := !sum +. v))
    base.Common.stores;
  Alcotest.check Alcotest.string "outcome"
    "commits=293 waits=2186 deadlocks=686 restarts=686 \
     mean=0x1.2c26d21c3a72bp-2 sum=0x1.ecdbd40493dbep+12"
    (Printf.sprintf "commits=%d waits=%d deadlocks=%d restarts=%d mean=%h sum=%h"
       s.Repl_stats.commits s.Repl_stats.waits s.Repl_stats.deadlocks
       s.Repl_stats.restarts s.Repl_stats.mean_duration !sum)

let test_eager_group_under_load () =
  let sys = Eager_group.create small_params ~seed:2 in
  Eager_group.start sys;
  Common.measure (Eager_group.base sys) ~warmup:2. ~span:10.;
  Eager_group.stop_load sys;
  Common.drain (Eager_group.base sys);
  let s = Eager_group.summary sys in
  checkb "commits happened" true (s.Repl_stats.commits > 50);
  checkb "no reconciliations in eager" true (s.Repl_stats.reconciliations = 0);
  checkb "replicas converged after drain" true
    (stores_converged (Eager_group.base sys).Common.stores)

let test_eager_deadlock_forced () =
  (* Two transactions updating the same two objects in opposite order, with
     one node: the classic cycle must be detected and both must still
     commit via restart. *)
  let params = { small_params with nodes = 1; tps = 1. } in
  let sys = Eager_group.create params ~seed:3 in
  Eager_group.submit sys ~node:0 [ Op.Assign (o 1, 1.); Op.Assign (o 2, 1.) ];
  Eager_group.submit sys ~node:0 [ Op.Assign (o 2, 2.); Op.Assign (o 1, 2.) ];
  Common.drain (Eager_group.base sys);
  let stats = (Eager_group.base sys).Common.stats in
  checki "both committed" 2 (Metrics.total stats.Repl_stats.commits);
  checki "one deadlock" 1 (Metrics.total stats.Repl_stats.deadlocks);
  checki "one restart" 1 (Metrics.total stats.Repl_stats.restarts)

let test_eager_duration_scales_with_nodes () =
  (* Equation (6): an uncontended eager transaction lasts
     Actions x Nodes x Action_Time. *)
  let duration nodes =
    let params = { small_params with nodes; tps = 0.001 } in
    let sys = Eager_group.create params ~seed:4 in
    Eager_group.submit sys ~node:0
      [ Op.Assign (o 1, 1.); Op.Assign (o 2, 1.); Op.Assign (o 3, 1.) ];
    Common.drain (Eager_group.base sys);
    Dangers_util.Stats.mean
      (Metrics.txn_duration (Eager_group.base sys).Common.metrics)
  in
  checkf "one node: 3 x 0.01" 0.03 (duration 1);
  checkf "four nodes: 3 x 4 x 0.01" 0.12 (duration 4)

(* --- Eager master --- *)

let test_eager_master_replicates () =
  let sys = Eager_impl.create Eager_impl.Master small_params ~seed:5 in
  Eager_impl.submit sys ~node:2 [ Op.Increment (o 4, 10.) ];
  Common.drain (Eager_impl.base sys);
  let stores = (Eager_impl.base sys).Common.stores in
  Array.iter (fun s -> checkf "replica updated" 10. (Fstore.read s (o 4))) stores;
  checki "object 4 mastered at node 1" 1 (Eager_impl.master_of sys (o 4))

(* --- Lazy group --- *)

let test_lazy_group_propagates () =
  let sys = Lazy_group.create small_params ~seed:6 in
  Lazy_group.submit sys ~node:1 [ Op.Assign (o 9, 5.) ];
  Common.drain (Lazy_group.base sys);
  let stores = (Lazy_group.base sys).Common.stores in
  Array.iter (fun s -> checkf "lazy replica updated" 5. (Fstore.read s (o 9))) stores;
  let stats = (Lazy_group.base sys).Common.stats in
  checki "applied at two peers" 2 (Metrics.total stats.Repl_stats.replica_applied);
  checki "no reconciliation" 0 (Metrics.total stats.Repl_stats.reconciliations)

let test_lazy_group_conflict_reconciles () =
  (* Both nodes assign the same object "simultaneously": each peer sees a
     broken timestamp chain; timestamp priority converges on the larger
     stamp. *)
  let params = { small_params with nodes = 2; tps = 0.0001 } in
  let sys = Lazy_group.create params ~seed:7 in
  Lazy_group.submit sys ~node:0 [ Op.Assign (o 3, 100.) ];
  Lazy_group.submit sys ~node:1 [ Op.Assign (o 3, 200.) ];
  Common.drain (Lazy_group.base sys);
  let stats = (Lazy_group.base sys).Common.stats in
  checkb "reconciliations detected" true
    (Metrics.total stats.Repl_stats.reconciliations >= 1);
  let stores = (Lazy_group.base sys).Common.stores in
  checkb "replicas converged" true (stores_converged stores);
  (* Timestamp priority: node 1's stamp (same counter, higher node) wins. *)
  checkf "last-writer value" 200. (Fstore.read stores.(0) (o 3))

let test_lazy_group_additive_exact () =
  let params = { small_params with nodes = 3 } in
  let profile = Profile.create ~update_kind:Profile.Increments ~actions:3 () in
  let sys =
    Lazy_group.create ~profile ~initial_value:100. ~rule:Reconcile.Additive params
      ~seed:8
  in
  Lazy_group.start sys;
  Clock.run_for (Lazy_group.base sys).Common.clock 20.;
  Lazy_group.stop_load sys;
  Lazy_group.force_sync sys;
  let stores = (Lazy_group.base sys).Common.stores in
  checkb "replicas converged" true
    (Array.for_all
       (fun s ->
         Fstore.fold s ~init:true ~f:(fun acc oid value _ ->
             acc && Float.abs (value -. Lazy_group.expected_sum sys oid) < 1e-6))
       stores);
  checkb "some commits" true
    (Metrics.total (Lazy_group.base sys).Common.stats.Repl_stats.commits > 20)

let test_lazy_group_timestamp_loses_increments () =
  (* The §6 lost-update problem: increments resolved by last-writer-wins
     drop deltas under concurrency. With heavy contention on a tiny
     database, the converged state must differ from the exact sums. *)
  let params = { small_params with db_size = 20; nodes = 3; tps = 10.; actions = 2 } in
  let profile = Profile.create ~update_kind:Profile.Increments ~actions:2 () in
  let sys =
    Lazy_group.create ~profile ~initial_value:0.
      ~rule:Reconcile.Timestamp_priority params ~seed:9
  in
  Lazy_group.start sys;
  Clock.run_for (Lazy_group.base sys).Common.clock 30.;
  Lazy_group.stop_load sys;
  Lazy_group.force_sync sys;
  let store = (Lazy_group.base sys).Common.stores.(0) in
  let lost =
    Fstore.fold store ~init:0 ~f:(fun acc oid value _ ->
        if Float.abs (value -. Lazy_group.expected_sum sys oid) > 1e-6 then acc + 1
        else acc)
  in
  checkb "updates were lost" true (lost > 0)

let test_lazy_group_mobile_parks_updates () =
  let params = { small_params with nodes = 2; tps = 2. } in
  let mobility = Connectivity.day_cycle ~connected:5. ~disconnected:30. in
  let sys = Lazy_group.create ~mobility params ~seed:10 in
  Lazy_group.start sys;
  Clock.run_for (Lazy_group.base sys).Common.clock 60.;
  Lazy_group.stop_load sys;
  Lazy_group.force_sync sys;
  checkb "replicas converged after reconnect" true
    (stores_converged (Lazy_group.base sys).Common.stores)

(* --- Lazy master --- *)

let test_lazy_master_routes_to_master () =
  let sys = Lazy_master.create small_params ~seed:11 in
  Lazy_master.submit sys ~node:0 [ Op.Assign (o 5, 50.) ];
  Common.drain (Lazy_master.base sys);
  checki "object 5 mastered at node 2" 2 (Lazy_master.master_of sys (o 5));
  let stores = (Lazy_master.base sys).Common.stores in
  Array.iter (fun s -> checkf "all replicas" 50. (Fstore.read s (o 5))) stores

let test_lazy_master_under_load () =
  let sys = Lazy_master.create { small_params with tps = 10. } ~seed:12 in
  Lazy_master.start sys;
  Common.measure (Lazy_master.base sys) ~warmup:2. ~span:10.;
  Lazy_master.stop_load sys;
  Common.drain (Lazy_master.base sys);
  let s = Lazy_master.summary sys in
  checkb "commits" true (s.Repl_stats.commits > 100);
  checki "lazy master never reconciles" 0 s.Repl_stats.reconciliations;
  checkb "replicas converged" true
    (stores_converged (Lazy_master.base sys).Common.stores)

(* --- Reconcile rules --- *)

let stamp c n = Timestamp.make ~counter:c ~node:n

let update ?(delta = None) ~value ~stamp:s ~origin () =
  {
    Reconcile.oid = o 0;
    old_stamp = Timestamp.zero;
    value;
    delta;
    stamp = s;
    origin;
  }

let test_reconcile_rules () =
  let current_stamp = stamp 5 0 and current_value = 10. in
  let newer = update ~value:20. ~stamp:(stamp 6 1) ~origin:1 () in
  let older = update ~value:30. ~stamp:(stamp 4 1) ~origin:1 () in
  let is expected actual = checkb "decision" true (expected = actual) in
  is Reconcile.Take_incoming
    (Reconcile.resolve Reconcile.Timestamp_priority ~current_value ~current_stamp newer);
  is Reconcile.Keep_current
    (Reconcile.resolve Reconcile.Timestamp_priority ~current_value ~current_stamp older);
  is Reconcile.Take_incoming
    (Reconcile.resolve (Reconcile.Value_priority `Max) ~current_value ~current_stamp older);
  is Reconcile.Keep_current
    (Reconcile.resolve (Reconcile.Value_priority `Min) ~current_value ~current_stamp newer);
  (* Site priority: current stamp's node is 0; prefer site 1. *)
  is Reconcile.Take_incoming
    (Reconcile.resolve (Reconcile.Site_priority [| 1; 0 |]) ~current_value
       ~current_stamp older);
  is Reconcile.Keep_current
    (Reconcile.resolve (Reconcile.Site_priority [| 0; 1 |]) ~current_value
       ~current_stamp newer);
  (match
     Reconcile.resolve Reconcile.Additive ~current_value ~current_stamp
       (update ~delta:(Some 7.) ~value:99. ~stamp:(stamp 6 1) ~origin:1 ())
   with
  | Reconcile.Merge v -> checkf "additive merge" 17. v
  | Reconcile.Keep_current | Reconcile.Take_incoming | Reconcile.Drop ->
      Alcotest.fail "expected merge");
  checkb "ignore rule drops" true
    (Reconcile.resolve Reconcile.Ignore ~current_value ~current_stamp newer
     = Reconcile.Drop);
  checkb "additive lossless" true (Reconcile.lossless Reconcile.Additive);
  checkb "timestamp lossy" false (Reconcile.lossless Reconcile.Timestamp_priority)

(* --- Convergence: Notes --- *)

let test_notes_appends_converge () =
  let a = Convergence.Notes.create ~site:0 and b = Convergence.Notes.create ~site:1 in
  Convergence.Notes.append a "from a";
  Convergence.Notes.append b "from b";
  Convergence.Notes.exchange a b;
  checkb "converged" true (Convergence.Notes.converged [ a; b ]);
  checki "both notes" 2 (List.length (Convergence.Notes.notes a));
  checki "no lost appends" 0 (Convergence.Notes.lost_updates [ a; b ])

let test_notes_replace_loses () =
  let a = Convergence.Notes.create ~site:0 and b = Convergence.Notes.create ~site:1 in
  Convergence.Notes.replace a ~key:"balance" ~value:100.;
  Convergence.Notes.replace b ~key:"balance" ~value:200.;
  Convergence.Notes.exchange a b;
  checkb "converged" true (Convergence.Notes.converged [ a; b ]);
  checki "one lost update" 1 (Convergence.Notes.lost_updates [ a; b ]);
  checki "two issued" 2 (Convergence.Notes.updates_issued [ a; b ]);
  (* Serial replaces are not lost. *)
  Convergence.Notes.replace a ~key:"balance" ~value:300.;
  Convergence.Notes.exchange a b;
  checki "still only the concurrent one lost" 1
    (Convergence.Notes.lost_updates [ a; b ])

let test_notes_three_replicas () =
  let replicas = List.init 3 (fun site -> Convergence.Notes.create ~site) in
  List.iteri
    (fun i r -> Convergence.Notes.replace r ~key:"k" ~value:(float_of_int i))
    replicas;
  (match replicas with
  | [ a; b; c ] ->
      Convergence.Notes.exchange a b;
      Convergence.Notes.exchange b c;
      Convergence.Notes.exchange a c;
      Convergence.Notes.exchange a b;
      checkb "converged" true (Convergence.Notes.converged replicas);
      checki "two of three lost" 2 (Convergence.Notes.lost_updates replicas)
  | _ -> assert false)

(* --- Convergence: Access --- *)

let test_access_causal_update_no_conflict () =
  let a = Convergence.Access.create ~site:0 ~db_size:4 in
  let b = Convergence.Access.create ~site:1 ~db_size:4 in
  Convergence.Access.update a (o 1) 10.;
  checki "no conflict when causal" 0 (Convergence.Access.exchange a b);
  checkf "propagated" 10. (Convergence.Access.read b (o 1));
  Convergence.Access.update b (o 1) 20.;
  checki "still causal" 0 (Convergence.Access.exchange a b);
  checkf "second update wins" 20. (Convergence.Access.read a (o 1));
  checkb "converged" true (Convergence.Access.converged [ a; b ])

let test_access_concurrent_conflict () =
  let a = Convergence.Access.create ~site:0 ~db_size:4 in
  let b = Convergence.Access.create ~site:1 ~db_size:4 in
  Convergence.Access.update a (o 2) 1.;
  Convergence.Access.update b (o 2) 2.;
  checki "one conflict reported" 1 (Convergence.Access.exchange a b);
  checkb "converged" true (Convergence.Access.converged [ a; b ]);
  checkf "later stamp wins" 2. (Convergence.Access.read a (o 2));
  checki "conflict recorded at a" 1 (Convergence.Access.conflicts_reported a)

(* --- Quorum --- *)

let test_quorum_majority_availability () =
  let q = Quorum.majority ~n:3 in
  (* P(>=2 of 3 up) at p=0.9 = 3 x 0.81 x 0.1 + 0.729 = 0.972 *)
  checkf "majority availability" 0.972 (Quorum.write_availability q ~p_up:0.9);
  checkb "can write with 2 up" true
    (Quorum.can_write q ~up:[| true; true; false |]);
  checkb "cannot write with 1 up" false
    (Quorum.can_write q ~up:[| true; false; false |])

let test_quorum_rowa () =
  let q = Quorum.read_one_write_all ~n:4 in
  checkf "write needs everyone" (0.9 ** 4.) (Quorum.write_availability q ~p_up:0.9);
  checkf "read needs anyone" (1. -. (0.1 ** 4.)) (Quorum.read_availability q ~p_up:0.9)

let test_quorum_validation () =
  Alcotest.check_raises "overlap required"
    (Invalid_argument "Quorum.create: need r + w > total votes") (fun () ->
      ignore (Quorum.create ~weights:[| 1; 1; 1 |] ~read_quorum:1 ~write_quorum:2))

let test_quorum_weighted () =
  (* Gifford's weighted example: a heavy replica can carry the quorum. *)
  let q = Quorum.create ~weights:[| 2; 1; 1 |] ~read_quorum:2 ~write_quorum:3 in
  checkb "heavy + light can write" true
    (Quorum.can_write q ~up:[| true; true; false |]);
  checkb "two lights cannot" false
    (Quorum.can_write q ~up:[| false; true; true |]);
  checkb "heavy alone can read" true (Quorum.can_read q ~up:[| true; false; false |])

(* --- Determinism across the whole stack --- *)

let test_scheme_determinism () =
  let run () =
    let sys = Lazy_master.create { small_params with tps = 8. } ~seed:99 in
    Lazy_master.start sys;
    Common.measure (Lazy_master.base sys) ~warmup:1. ~span:5.;
    Lazy_master.stop_load sys;
    Common.drain (Lazy_master.base sys);
    let s = Lazy_master.summary sys in
    (s.Repl_stats.commits, s.Repl_stats.waits, s.Repl_stats.deadlocks)
  in
  let a = run () and b = run () in
  checkb "identical metrics under one seed" true (a = b)

let suite =
  [
    Alcotest.test_case "eager group replicates" `Quick test_eager_group_replicates;
    Alcotest.test_case "eager group under load" `Quick test_eager_group_under_load;
    Alcotest.test_case "eager deadlock forced" `Quick test_eager_deadlock_forced;
    Alcotest.test_case "eager group uniform delay pinned" `Quick
      test_eager_group_uniform_delay_pinned;
    Alcotest.test_case "eager duration scales" `Quick test_eager_duration_scales_with_nodes;
    Alcotest.test_case "eager master replicates" `Quick test_eager_master_replicates;
    Alcotest.test_case "lazy group propagates" `Quick test_lazy_group_propagates;
    Alcotest.test_case "lazy group conflict reconciles" `Quick test_lazy_group_conflict_reconciles;
    Alcotest.test_case "lazy group additive exact" `Quick test_lazy_group_additive_exact;
    Alcotest.test_case "lazy group timestamp loses" `Quick test_lazy_group_timestamp_loses_increments;
    Alcotest.test_case "lazy group mobile parks" `Quick test_lazy_group_mobile_parks_updates;
    Alcotest.test_case "lazy master routes" `Quick test_lazy_master_routes_to_master;
    Alcotest.test_case "lazy master under load" `Quick test_lazy_master_under_load;
    Alcotest.test_case "reconcile rules" `Quick test_reconcile_rules;
    Alcotest.test_case "notes appends converge" `Quick test_notes_appends_converge;
    Alcotest.test_case "notes replace loses" `Quick test_notes_replace_loses;
    Alcotest.test_case "notes three replicas" `Quick test_notes_three_replicas;
    Alcotest.test_case "access causal" `Quick test_access_causal_update_no_conflict;
    Alcotest.test_case "access concurrent conflict" `Quick test_access_concurrent_conflict;
    Alcotest.test_case "quorum majority" `Quick test_quorum_majority_availability;
    Alcotest.test_case "quorum rowa" `Quick test_quorum_rowa;
    Alcotest.test_case "quorum validation" `Quick test_quorum_validation;
    Alcotest.test_case "quorum weighted" `Quick test_quorum_weighted;
    Alcotest.test_case "scheme determinism" `Quick test_scheme_determinism;
  ]
