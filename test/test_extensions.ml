(* Tests for the post-core extensions: read transactions and S-lock
   sharing, derived writes (Assign_from), eager message-delay charging,
   hotspot profiles, and the Datacycle master assignment. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Txn_id = Dangers_txn.Txn_id
module Executor = Dangers_txn.Executor
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Fstore = Dangers_storage.Store.Fstore
module Lock_table = Dangers_lock.Lock_table
module Delay = Dangers_runtime.Delay
module Rng = Dangers_util.Rng
module Stats = Dangers_util.Stats

module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Eager_group = Dangers_replication.Eager_group
module Eager_impl = Dangers_replication.Eager_impl
module Lazy_master = Dangers_replication.Lazy_master

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let o n = Oid.of_int n

(* --- Assign_from (derived writes) --- *)

let test_assign_from_apply () =
  let op = Op.Assign_from { target = o 0; source = o 5; offset = -3. } in
  let read oid = if Oid.to_int oid = 5 then 100. else 0. in
  checkf "derived value" 97. (Op.apply ~read ~current:1. op);
  checki "writes the target" 0 (Oid.to_int (Op.oid op));
  checkb "is an update" true (Op.is_update op);
  Alcotest.check_raises "requires read"
    (Invalid_argument "Op.apply: derived op needs ~read") (fun () ->
      ignore (Op.apply ~current:1. op))

let test_assign_from_commutes () =
  let quote = Op.Assign_from { target = o 0; source = o 5; offset = 0. } in
  checkb "conflicts with writes to its source" false
    (Op.commutes quote (Op.Increment (o 5, 1.)));
  checkb "conflicts with writes to its target" false
    (Op.commutes quote (Op.Increment (o 0, 1.)));
  checkb "independent objects commute" true
    (Op.commutes quote (Op.Increment (o 9, 1.)));
  checkb "reads commute" true (Op.commutes quote (Op.Read (o 5)))

(* --- Reads in profiles --- *)

let test_profile_reads () =
  let profile = Profile.create ~reads:3 ~actions:2 () in
  let sampler = Profile.sampler profile ~db_size:30 in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 50 do
    let ops = Profile.draw sampler rng in
    checki "five ops" 5 (List.length ops);
    let reads = List.filter (fun op -> not (Op.is_update op)) ops in
    checki "three reads" 3 (List.length reads);
    let oids = List.map (fun op -> Oid.to_int (Op.oid op)) ops in
    checki "all distinct" 5 (List.length (List.sort_uniq Int.compare oids))
  done

(* --- S-lock sharing in the executor --- *)

let test_readers_share () =
  let engine = Engine.create () in
  let locks = Lock_table.create () in
  let executor =
    Executor.create ~clock:engine ~locks ~action_time:0.1
      ~ids:(Txn_id.Gen.create ())
      ~backoff:(fun () -> Alcotest.fail "readers cannot deadlock")
      ()
  in
  let done_at = ref [] in
  let submit () =
    Executor.run executor
      ~steps:(fun () -> [ Executor.read_step ~resource:7 ])
      ~on_commit:(fun ~started:_ -> done_at := Engine.now engine :: !done_at)
  in
  submit ();
  submit ();
  Engine.run engine;
  (* Both readers run concurrently: both finish at t = 0.1. *)
  Alcotest.check
    (Alcotest.list (Alcotest.float 1e-9))
    "parallel readers" [ 0.1; 0.1 ] !done_at

let test_writer_waits_for_reader () =
  let engine = Engine.create () in
  let locks = Lock_table.create () in
  let executor =
    Executor.create ~clock:engine ~locks ~action_time:0.1
      ~ids:(Txn_id.Gen.create ())
      ~backoff:(fun () -> Alcotest.fail "deadlock")
      ()
  in
  let times = ref [] in
  let submit step tag =
    Executor.run executor ~steps:(fun () -> [ step ])
      ~on_commit:(fun ~started:_ -> times := (tag, Engine.now engine) :: !times)
  in
  submit (Executor.read_step ~resource:1) "r";
  submit (Executor.update_step ~resource:1) "w";
  Engine.run engine;
  (match List.rev !times with
  | [ ("r", tr); ("w", tw) ] ->
      checkf "reader first" 0.1 tr;
      checkf "writer after reader" 0.2 tw
  | _ -> Alcotest.fail "both must finish")

(* --- Eager: reads stay local --- *)

let test_eager_read_txn_is_local_and_silent () =
  let params = { Params.default with nodes = 3; db_size = 20; tps = 0.001 } in
  let sys = Eager_group.create ~initial_value:5. params ~seed:1 in
  let base = Eager_group.base sys in
  let snapshot = Fstore.copy base.Common.stores.(1) in
  (* A transaction of two reads and one remote-ish read takes only local
     time and changes nothing anywhere. *)
  Eager_group.submit sys ~node:0 [ Op.Read (o 1); Op.Read (o 2) ];
  Common.drain base;
  checkb "no store changed" true (Fstore.content_equal snapshot base.Common.stores.(1));
  checkf "read txn duration = reads x action_time" 0.02
    (Stats.mean (Metrics.txn_duration base.Common.metrics))

(* --- Eager: message delay stretches remote steps --- *)

let test_eager_delay_charges_remote_steps () =
  let params = { Params.default with nodes = 3; db_size = 20; tps = 0.001; actions = 2 } in
  let duration delay =
    let sys = Eager_impl.create ~delay Eager_impl.Group params ~seed:2 in
    Eager_impl.submit sys ~node:0 [ Op.Assign (o 1, 1.); Op.Assign (o 2, 2.) ];
    Common.drain (Eager_impl.base sys);
    Stats.mean
      (Metrics.txn_duration (Eager_impl.base sys).Common.metrics)
  in
  (* 2 updates x 3 nodes x 10ms. *)
  checkf "zero delay baseline" 0.06 (duration Delay.Zero);
  (* 4 remote steps pick up 50ms each. *)
  checkf "constant delay added per remote step" (0.06 +. (4. *. 0.05))
    (duration (Delay.Constant 0.05))

(* --- Lazy master: Datacycle assignment --- *)

let test_datacycle_single_master () =
  let params = { Params.default with nodes = 3; db_size = 30; tps = 0.001 } in
  let sys =
    Lazy_master.create ~master_assignment:(Lazy_master.Datacycle 1) params ~seed:3
  in
  for i = 0 to 29 do
    checki "all objects mastered at node 1" 1 (Lazy_master.master_of sys (o i))
  done;
  Lazy_master.submit sys ~node:0 [ Op.Assign (o 4, 9.) ];
  Common.drain (Lazy_master.base sys);
  Array.iter
    (fun store -> checkf "replicated from the single master" 9. (Fstore.read store (o 4)))
    (Lazy_master.base sys).Common.stores;
  Alcotest.check_raises "master out of range"
    (Invalid_argument "Lazy_master.create: Datacycle master out of range")
    (fun () ->
      ignore
        (Lazy_master.create ~master_assignment:(Lazy_master.Datacycle 9) params
           ~seed:4))

(* --- Two-tier replays derived writes against current data --- *)

let test_two_tier_derived_write_drifts () =
  let module Two_tier = Dangers_core.Two_tier in
  let module Acceptance = Dangers_core.Acceptance in
  let module Connectivity = Dangers_net.Connectivity in
  let params = { Params.default with nodes = 2; db_size = 10; tps = 1. } in
  let sys =
    Two_tier.create ~initial_value:100. ~acceptance:Acceptance.At_most_tentative
      ~mobility:(Connectivity.day_cycle ~connected:5. ~disconnected:1_000_000.)
      ~base_nodes:1 params ~seed:5
  in
  Clock.run (Two_tier.base sys).Common.clock ~until:1_000_010.;
  (* Quote: o0 := o5 - 10, evaluated tentatively against o5 = 100. *)
  Two_tier.submit sys ~node:1
    [ Op.Assign_from { target = o 0; source = o 5; offset = -10. } ];
  (* The catalog moves to 150 at the base. *)
  Two_tier.run_base_transaction sys ~ops:[ Op.Assign (o 5, 150.) ]
    ~on_done:(fun _ -> ()) ();
  Two_tier.quiesce_and_sync sys;
  checki "re-execution drifted above the quote: rejected" 1
    (Two_tier.tentative_rejected sys);
  checkf "target untouched on the base" 100.
    (Fstore.read (Two_tier.base sys).Common.stores.(0) (o 0));
  checkb "still converged" true (Two_tier.converged sys)

let suite =
  [
    Alcotest.test_case "assign_from apply" `Quick test_assign_from_apply;
    Alcotest.test_case "assign_from commutes" `Quick test_assign_from_commutes;
    Alcotest.test_case "profile reads" `Quick test_profile_reads;
    Alcotest.test_case "readers share S locks" `Quick test_readers_share;
    Alcotest.test_case "writer waits for reader" `Quick test_writer_waits_for_reader;
    Alcotest.test_case "eager reads local and silent" `Quick
      test_eager_read_txn_is_local_and_silent;
    Alcotest.test_case "eager delay charges remote steps" `Quick
      test_eager_delay_charges_remote_steps;
    Alcotest.test_case "datacycle single master" `Quick test_datacycle_single_master;
    Alcotest.test_case "two-tier derived write drifts" `Quick
      test_two_tier_derived_write_drifts;
  ]
