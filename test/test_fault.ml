(* Fault plan / injector / recovery / fuzzer tests — the fast, deterministic
   slice that runs in tier-1. The open-ended random sweep lives behind the
   @fuzz alias (test/fuzz). *)

module Fault_plan = Dangers_fault.Fault_plan
module Fault_injector = Dangers_fault.Fault_injector
module Recovery = Dangers_fault.Recovery
module Invariants = Dangers_fault.Invariants
module Fuzz = Dangers_fault.Fuzz
module Network = Dangers_net.Network
module Engine = Dangers_sim.Engine
module Trace = Dangers_sim.Trace
module Rng = Dangers_util.Rng
module Fstore = Dangers_storage.Store.Fstore
module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Fault_plan --- *)

let test_plan_deterministic () =
  let gen () =
    Fault_plan.generate ~rng:(Rng.create ~seed:11) ~nodes:5 ~horizon:30.
      Fault_plan.chaotic
  in
  let a = gen () and b = gen () in
  Alcotest.check Alcotest.string "same seed, same plan"
    (Format.asprintf "%a" Fault_plan.pp a)
    (Format.asprintf "%a" Fault_plan.pp b)

let test_plan_well_formed () =
  let plan =
    Fault_plan.generate ~rng:(Rng.create ~seed:3) ~nodes:6 ~horizon:50.
      { Fault_plan.chaotic with crashes_per_node = 4.; partitions = 4. }
  in
  (* Per-node crash windows never overlap. *)
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun (c : Fault_plan.crash) ->
      checkb "crash before restart" true (c.at <= c.up_at);
      let prev = Option.value ~default:(-1.) (Hashtbl.find_opt by_node c.node) in
      checkb "no overlap per node" true (c.at >= prev);
      Hashtbl.replace by_node c.node c.up_at)
    plan.Fault_plan.crash_list;
  (* Partitions are sorted and disjoint. *)
  ignore
    (List.fold_left
       (fun prev_heal (p : Fault_plan.partition) ->
         checkb "partitions disjoint" true (p.starts >= prev_heal);
         checkb "partition spans forward" true (p.heals >= p.starts);
         p.heals)
       (-1.) plan.Fault_plan.partition_list)

let test_plan_clean_is_empty () =
  let plan =
    Fault_plan.generate ~rng:(Rng.create ~seed:1) ~nodes:4 ~horizon:10.
      Fault_plan.clean
  in
  checkb "no crashes" true (Fault_plan.crash_free plan);
  checki "no partitions" 0 (List.length plan.Fault_plan.partition_list);
  checkb "lossless" true (Fault_plan.lossless_messages plan)

let test_plan_crashable_subset () =
  let plan =
    Fault_plan.generate ~rng:(Rng.create ~seed:5) ~nodes:6 ~crashable:[ 4; 5 ]
      ~horizon:40.
      { Fault_plan.clean with crashes_per_node = 3.; mean_downtime = 2. }
  in
  checkb "some crashes sampled" true (plan.Fault_plan.crash_list <> []);
  List.iter
    (fun (c : Fault_plan.crash) ->
      checkb "only crashable nodes crash" true (c.node = 4 || c.node = 5))
    plan.Fault_plan.crash_list

(* --- Fault_injector against a raw network --- *)

let manual_plan ?(spec = Fault_plan.clean) ?(crashes = []) ?(partitions = [])
    ~nodes () =
  {
    Fault_plan.spec;
    horizon = 100.;
    nodes;
    crash_list = crashes;
    partition_list = partitions;
  }

let test_injector_drops_messages () =
  let engine = Engine.create () in
  let plan =
    manual_plan ~spec:{ Fault_plan.clean with drop_prob = 1. } ~nodes:2 ()
  in
  let injector = Fault_injector.create ~plan ~rng:(Rng.create ~seed:1) in
  let received = ref 0 in
  let network =
    Network.create
      ~faults:(Fault_injector.faults injector)
      ~clock:engine ~rng:(Rng.create ~seed:2) ~delay:Dangers_runtime.Delay.Zero ~nodes:2
      ~deliver:(fun ~src:_ ~dst:_ () -> incr received)
      ()
  in
  for _ = 1 to 5 do
    Network.send network ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  checki "nothing arrives" 0 !received;
  checki "drops counted" 5 (Network.messages_dropped network)

let test_injector_duplicates_messages () =
  let engine = Engine.create () in
  let plan =
    manual_plan ~spec:{ Fault_plan.clean with dup_prob = 1. } ~nodes:2 ()
  in
  let injector = Fault_injector.create ~plan ~rng:(Rng.create ~seed:1) in
  let received = ref 0 in
  let network =
    Network.create
      ~faults:(Fault_injector.faults injector)
      ~clock:engine ~rng:(Rng.create ~seed:2) ~delay:Dangers_runtime.Delay.Zero ~nodes:2
      ~deliver:(fun ~src:_ ~dst:_ () -> incr received)
      ()
  in
  Network.send network ~src:0 ~dst:1 ();
  Engine.run engine;
  checki "two copies arrive" 2 !received;
  checki "duplicates counted" 1 (Network.messages_duplicated network)

let test_injector_partition_parks_then_heals () =
  let engine = Engine.create () in
  let partition =
    { Fault_plan.starts = 1.; heals = 2.; block_of = [| 0; 0; 1 |] }
  in
  let plan = manual_plan ~partitions:[ partition ] ~nodes:3 () in
  let injector = Fault_injector.create ~plan ~rng:(Rng.create ~seed:1) in
  let arrivals = ref [] in
  let network =
    Network.create
      ~faults:(Fault_injector.faults injector)
      ~clock:engine ~rng:(Rng.create ~seed:2) ~delay:Dangers_runtime.Delay.Zero ~nodes:3
      ~deliver:(fun ~src:_ ~dst:_ label ->
        arrivals := (label, Engine.now engine) :: !arrivals)
      ()
  in
  Fault_injector.start injector ~clock:engine
    ~flush_node:(fun ~node -> Network.flush_node network ~node)
    ();
  (* Across the cut while split: parked. Within a block: flows. *)
  ignore
    (Engine.schedule_at engine ~time:1.5 (fun () ->
         Network.send network ~src:0 ~dst:2 "cross";
         Network.send network ~src:0 ~dst:1 "same-block"));
  Engine.run engine;
  let find label = List.assoc label !arrivals in
  checkf "same-block flows during the split" 1.5 (find "same-block");
  checkf "cross-cut waits for the heal" 2. (find "cross");
  checki "one partition fired" 1 (Fault_injector.partitions_fired injector)

let test_injector_crash_restart_cycle () =
  let engine = Engine.create () in
  let crashes = [ { Fault_plan.node = 1; at = 1.; up_at = 3. } ] in
  let plan = manual_plan ~crashes ~nodes:2 () in
  let injector = Fault_injector.create ~plan ~rng:(Rng.create ~seed:1) in
  let log = ref [] in
  let push tag = log := (tag, Engine.now engine) :: !log in
  Fault_injector.start injector ~clock:engine
    ~set_connected:(fun ~node state ->
      push (Printf.sprintf "connect n%d %b" node state))
    ~on_crash:(fun ~node -> push (Printf.sprintf "crash n%d" node))
    ~on_restart:(fun ~node -> push (Printf.sprintf "restart n%d" node))
    ();
  ignore
    (Engine.schedule_at engine ~time:2. (fun () ->
         checkb "down mid-window" true (Fault_injector.is_down injector ~node:1)));
  Engine.run engine;
  checkb "up after restart" false (Fault_injector.is_down injector ~node:1);
  checki "one crash fired" 1 (Fault_injector.crashes_fired injector);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "disconnect before wipe; replay before reconnect"
    [
      ("connect n1 false", 1.); ("crash n1", 1.);
      ("restart n1", 3.); ("connect n1 true", 3.);
    ]
    (List.rev !log)

let test_injector_stop_restores () =
  let engine = Engine.create () in
  let crashes = [ { Fault_plan.node = 0; at = 1.; up_at = 50. } ] in
  let partition =
    { Fault_plan.starts = 1.; heals = 60.; block_of = [| 0; 1 |] }
  in
  let plan = manual_plan ~crashes ~partitions:[ partition ] ~nodes:2 () in
  let injector = Fault_injector.create ~plan ~rng:(Rng.create ~seed:1) in
  let restarts = ref 0 in
  Fault_injector.start injector ~clock:engine
    ~on_restart:(fun ~node:_ -> incr restarts)
    ();
  Engine.run engine ~until:2.;
  checkb "down at stop time" true (Fault_injector.is_down injector ~node:0);
  Fault_injector.stop injector;
  checkb "restored" false (Fault_injector.is_down injector ~node:0);
  checki "restart hook ran" 1 !restarts;
  (* The cancelled restart/heal events must not fire later. *)
  Engine.run engine;
  checki "no second restart" 1 !restarts

let test_injector_traces_faults () =
  let engine = Engine.create () in
  let tracer = Trace.create () in
  Engine.set_tracer engine (Some tracer);
  let crashes = [ { Fault_plan.node = 0; at = 1.; up_at = 2. } ] in
  let plan = manual_plan ~crashes ~nodes:2 () in
  let injector = Fault_injector.create ~plan ~rng:(Rng.create ~seed:1) in
  Fault_injector.start injector ~clock:engine ();
  Engine.run engine;
  let events =
    List.rev (Trace.fold tracer ~init:[] (fun acc e -> e.Trace.event :: acc))
  in
  checkb "crash traced" true
    (List.mem (Trace.Node_crashed { node = 0 }) events);
  checkb "restart traced" true
    (List.mem (Trace.Node_restarted { node = 0 }) events)

(* --- Recovery --- *)

let stamp counter = Timestamp.make ~counter ~node:0

let test_recovery_round_trip () =
  let store = Fstore.create ~db_size:4 ~init:0. in
  let recovery = Recovery.attach ~node:0 ~initial_value:0. store in
  Fstore.write store (Oid.of_int 0) 10. (stamp 1);
  Fstore.write store (Oid.of_int 2) 5. (stamp 2);
  Fstore.write store (Oid.of_int 0) 11. (stamp 3);
  checki "every write journaled" 3 (Recovery.journal_length recovery);
  Recovery.crash recovery;
  Recovery.restart recovery;
  checkf "value restored" 11. (Fstore.read store (Oid.of_int 0));
  checkf "other object restored" 5. (Fstore.read store (Oid.of_int 2));
  checkb "stamp restored" true
    (Timestamp.equal (stamp 3) (Fstore.stamp store (Oid.of_int 0)));
  checki "one crash" 1 (Recovery.crashes recovery);
  Alcotest.check (Alcotest.list Alcotest.string) "no violations" []
    (Recovery.violations recovery);
  (* Recovery's own wipe/replay writes must not pollute the journal. *)
  checki "journal untouched by recovery" 3 (Recovery.journal_length recovery)

let test_recovery_detects_unjournaled_writes () =
  let store = Fstore.create ~db_size:4 ~init:0. in
  (* A mutation before attach escapes the journal: completeness must fail. *)
  Fstore.write store (Oid.of_int 1) 99. (stamp 1);
  let recovery = Recovery.attach ~node:3 ~initial_value:0. store in
  Fstore.write store (Oid.of_int 0) 1. (stamp 2);
  Recovery.crash recovery;
  checki "completeness violation recorded" 1
    (List.length (Recovery.violations recovery));
  checkb "violation names the node" true
    (String.length (List.hd (Recovery.violations recovery)) > 0)

let test_recovery_journals_all_mutation_paths () =
  let store = Fstore.create ~db_size:2 ~init:0. in
  let recovery = Recovery.attach ~node:0 ~initial_value:0. store in
  Fstore.write store (Oid.of_int 1) 3. (stamp 1);
  (match Fstore.apply_if_newer store (Oid.of_int 0) 7. (stamp 2) with
  | `Applied -> ()
  | `Stale -> Alcotest.fail "newer must apply");
  let src = Fstore.create ~db_size:2 ~init:42. in
  Fstore.overwrite_from store ~src;
  (* A write, a conditional apply and 2 overwrite entries. *)
  checki "all paths journaled" 4 (Recovery.journal_length recovery);
  Recovery.crash recovery;
  Alcotest.check (Alcotest.list Alcotest.string) "complete" []
    (Recovery.violations recovery)

(* --- Fuzz: deterministic fast slice --- *)

let test_fuzz_case_deterministic () =
  let case =
    { Fuzz.scheme = Fuzz.Lazy_group; seed = 123; nodes = 4; txns = 30;
      level = Fuzz.Chaotic }
  in
  let a = Fuzz.run case and b = Fuzz.run case in
  checki "same submissions" a.Fuzz.txns_submitted b.Fuzz.txns_submitted;
  checki "same crashes" a.Fuzz.crashes_fired b.Fuzz.crashes_fired;
  checki "same violations" (List.length a.Fuzz.violations)
    (List.length b.Fuzz.violations);
  Alcotest.check Alcotest.string "same plan"
    (Format.asprintf "%a" Fault_plan.pp a.Fuzz.plan)
    (Format.asprintf "%a" Fault_plan.pp b.Fuzz.plan)

let test_fuzz_invariants_hold_spot () =
  List.iter
    (fun scheme ->
      List.iter
        (fun level ->
          let case = { Fuzz.scheme; seed = 7; nodes = 3; txns = 25; level } in
          let outcome = Fuzz.run case in
          Alcotest.check Alcotest.int
            (Printf.sprintf "%s/%s clean run" (Fuzz.scheme_name scheme)
               (Fuzz.level_name level))
            0
            (List.length outcome.Fuzz.violations))
        [ Fuzz.Clean; Fuzz.Lossless; Fuzz.Chaotic ])
    Fuzz.all_schemes

let test_fuzz_sabotage_caught () =
  let find_violation scheme invariant =
    List.exists
      (fun seed ->
        let case =
          { Fuzz.scheme; seed; nodes = 4; txns = 100; level = Fuzz.Lossless }
        in
        List.exists
          (fun (v : Invariants.violation) ->
            v.Invariants.invariant = invariant)
          (Fuzz.run ~sabotage:true case).Fuzz.violations)
      [ 1; 2; 3; 4; 5 ]
  in
  checkb "skipped acceptance produces base delusion" true
    (find_violation Fuzz.Two_tier "two-tier-base-1SR");
  checkb "lossy rule loses updates" true
    (find_violation Fuzz.Lazy_group "lazy-group-lossless-sum")

let test_fuzz_names_round_trip () =
  List.iter
    (fun s ->
      Alcotest.check Alcotest.bool "scheme name round-trips" true
        (Fuzz.scheme_of_name (Fuzz.scheme_name s) = Some s))
    Fuzz.all_schemes;
  List.iter
    (fun l ->
      Alcotest.check Alcotest.bool "level name round-trips" true
        (Fuzz.level_of_name (Fuzz.level_name l) = Some l))
    [ Fuzz.Clean; Fuzz.Lossless; Fuzz.Chaotic ];
  checkb "replay command mentions the seed" true
    (let case =
       { Fuzz.scheme = Fuzz.Two_tier; seed = 99; nodes = 2; txns = 5;
         level = Fuzz.Clean }
     in
     let cmd = Fuzz.replay_command case in
     String.length cmd > 0
     && Option.is_some
          (String.index_opt cmd '9' (* crude: seed digits present *)))

(* --- Fault injection under parallel execution ---

   The partitioned eager scheme consults its fault hooks from partition
   windows that may run on several domains, so the hooks must be pure
   functions of (src, dst) — and a fixed plan must then replay
   byte-identically at any --sim-domains. *)

module Par_eager = Dangers_replication.Par_eager
module Params = Dangers_analytic.Params
module Observe = Dangers_sim.Observe

(* A deterministic lossy plan: node 3 is cut off from node 0's applies,
   one pair duplicates, one pair reorders. Pure in (src, dst), as the
   parallel engine requires. *)
let pure_faults =
  {
    Network.blocked = (fun ~src ~dst -> src = 0 && dst = 3);
    on_transmit =
      (fun ~src ~dst ->
        match ((2 * src) + dst) mod 7 with
        | 0 -> Network.Drop
        | 1 -> Network.Duplicate
        | 2 -> Network.Delay_extra 0.075
        | _ -> Network.Pass);
  }

let par_eager_faulty_state ~domains =
  let params = { Params.default with db_size = 150; nodes = 4; tps = 3. } in
  let t = Par_eager.create ~faults:pure_faults params ~seed:23 in
  Par_eager.start t;
  Par_eager.measure ~domains t ~warmup:1. ~span:10.;
  Par_eager.quiesce ~domains t;
  ( Format.asprintf "%a" Dangers_replication.Repl_stats.pp_summary
      (Par_eager.summary t),
    List.init 4 (Par_eager.store_fingerprint t),
    Par_eager.diagnostics t )

let test_par_eager_faults_deterministic () =
  let (_, fingerprints, diags) as serial = par_eager_faulty_state ~domains:1 in
  checkb "plan actually bites" true (List.assoc "apply_dropped" diags > 0.);
  (* drops leave real divergence — determinism below is not vacuous *)
  checkb "blocked replica diverges" true
    (List.nth fingerprints 3 <> List.nth fingerprints 1);
  List.iter
    (fun domains ->
      checkb
        (Printf.sprintf "faulty replay identical at domains=%d" domains)
        true
        (par_eager_faulty_state ~domains = serial))
    [ 2; 4 ]

(* The legacy single-heap fuzzer ignores the ambient domain budget — an
   installed budget must not leak into its RNG streams or plans. *)
let test_fuzz_ignores_sim_domains () =
  let case =
    { Fuzz.scheme = Fuzz.Eager_group; seed = 77; nodes = 3; txns = 20;
      level = Fuzz.Chaotic }
  in
  let plain = Fuzz.run case in
  let budgeted = Observe.with_domains 2 (fun () -> Fuzz.run case) in
  checki "same submissions" plain.Fuzz.txns_submitted
    budgeted.Fuzz.txns_submitted;
  checki "same crashes" plain.Fuzz.crashes_fired budgeted.Fuzz.crashes_fired;
  checki "same violations"
    (List.length plain.Fuzz.violations)
    (List.length budgeted.Fuzz.violations);
  Alcotest.check Alcotest.string "same plan"
    (Format.asprintf "%a" Fault_plan.pp plain.Fuzz.plan)
    (Format.asprintf "%a" Fault_plan.pp budgeted.Fuzz.plan)

let suite =
  [
    Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan well-formed" `Quick test_plan_well_formed;
    Alcotest.test_case "plan clean empty" `Quick test_plan_clean_is_empty;
    Alcotest.test_case "plan crashable subset" `Quick test_plan_crashable_subset;
    Alcotest.test_case "injector drops" `Quick test_injector_drops_messages;
    Alcotest.test_case "injector duplicates" `Quick
      test_injector_duplicates_messages;
    Alcotest.test_case "injector partition" `Quick
      test_injector_partition_parks_then_heals;
    Alcotest.test_case "injector crash cycle" `Quick
      test_injector_crash_restart_cycle;
    Alcotest.test_case "injector stop restores" `Quick
      test_injector_stop_restores;
    Alcotest.test_case "injector traces" `Quick test_injector_traces_faults;
    Alcotest.test_case "recovery round trip" `Quick test_recovery_round_trip;
    Alcotest.test_case "recovery detects gaps" `Quick
      test_recovery_detects_unjournaled_writes;
    Alcotest.test_case "recovery covers all paths" `Quick
      test_recovery_journals_all_mutation_paths;
    Alcotest.test_case "fuzz deterministic" `Quick test_fuzz_case_deterministic;
    Alcotest.test_case "fuzz invariants spot" `Quick
      test_fuzz_invariants_hold_spot;
    Alcotest.test_case "fuzz sabotage caught" `Quick test_fuzz_sabotage_caught;
    Alcotest.test_case "fuzz names round trip" `Quick
      test_fuzz_names_round_trip;
    Alcotest.test_case "parallel faults deterministic" `Slow
      test_par_eager_faults_deterministic;
    Alcotest.test_case "fuzz ignores sim-domains budget" `Slow
      test_fuzz_ignores_sim_domains;
  ]
