(* Op, Txn_id, and Executor tests. *)

module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Txn_id = Dangers_txn.Txn_id
module Executor = Dangers_txn.Executor
module Engine = Dangers_sim.Engine
module Lock_manager = Dangers_lock.Lock_manager

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let o n = Oid.of_int n

(* --- Op --- *)

let test_op_apply () =
  checkf "assign" 7. (Op.apply ~current:3. (Op.Assign (o 0, 7.)));
  checkf "increment" 5. (Op.apply ~current:3. (Op.Increment (o 0, 2.)));
  checkf "read" 3. (Op.apply ~current:3. (Op.Read (o 0)))

let test_op_commutes () =
  checkb "distinct oids commute" true
    (Op.commutes (Op.Assign (o 0, 1.)) (Op.Assign (o 1, 2.)));
  checkb "increments commute" true
    (Op.commutes (Op.Increment (o 0, 1.)) (Op.Increment (o 0, 2.)));
  checkb "assigns do not commute" false
    (Op.commutes (Op.Assign (o 0, 1.)) (Op.Assign (o 0, 2.)));
  checkb "assign/increment do not commute" false
    (Op.commutes (Op.Assign (o 0, 1.)) (Op.Increment (o 0, 2.)));
  checkb "reads commute with anything" true
    (Op.commutes (Op.Read (o 0)) (Op.Assign (o 0, 2.)))

let test_all_commute () =
  let incs = [ Op.Increment (o 0, 1.); Op.Increment (o 1, 2.) ] in
  checkb "increment lists commute" true (Op.all_commute incs incs);
  checkb "assign breaks it" false
    (Op.all_commute incs [ Op.Assign (o 0, 5.) ])

(* Increments on one object produce the same value in any order. *)
let increments_commute_prop =
  QCheck.Test.make ~name:"op: increment application order-independent" ~count:300
    QCheck.(pair (list (float_range (-100.) 100.)) (float_range (-100.) 100.))
    (fun (deltas, start) ->
      let ops = List.map (fun d -> Op.Increment (o 0, d)) deltas in
      let apply order =
        List.fold_left (fun value op -> Op.apply ~current:value op) start order
      in
      Float.abs (apply ops -. apply (List.rev ops)) < 1e-6)

(* --- Txn_id --- *)

let test_txn_id_gen () =
  let gen = Txn_id.Gen.create () in
  let a = Txn_id.Gen.next gen and b = Txn_id.Gen.next gen in
  checkb "distinct" false (Txn_id.equal a b);
  checki "issued" 2 (Txn_id.Gen.issued gen)

(* --- Executor --- *)

let make_executor () =
  let engine = Engine.create () in
  let locks = Lock_manager.create () in
  let waits = ref 0 in
  let executor =
    Executor.create
      ~on_wait:(fun () -> incr waits)
      ~clock:engine ~locks ~action_time:0.1 ()
  in
  (engine, executor, waits)

let test_executor_duration () =
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  let committed_at = ref nan in
  let steps =
    List.init 4 (fun i -> Executor.update_step ~resource:i)
  in
  Executor.run executor ~owner:(Txn_id.Gen.next gen) ~steps
    ~on_commit:(fun () -> committed_at := Engine.now engine)
    ~on_deadlock:(fun ~cycle:_ -> Alcotest.fail "unexpected deadlock");
  Engine.run engine;
  (* 4 actions x 0.1s, uncontended. *)
  checkf "duration" 0.4 !committed_at;
  checki "done" 0 (Executor.active executor)

let test_executor_empty_commits () =
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  let committed = ref false in
  Executor.run executor ~owner:(Txn_id.Gen.next gen) ~steps:[]
    ~on_commit:(fun () -> committed := true)
    ~on_deadlock:(fun ~cycle:_ -> Alcotest.fail "deadlock");
  checkb "instant commit" true !committed;
  ignore engine

let test_executor_serializes_conflicts () =
  let engine, executor, waits = make_executor () in
  let gen = Txn_id.Gen.create () in
  let order = ref [] in
  let submit tag =
    Executor.run executor ~owner:(Txn_id.Gen.next gen)
      ~steps:[ Executor.update_step ~resource:42 ]
      ~on_commit:(fun () -> order := (tag, Engine.now engine) :: !order)
      ~on_deadlock:(fun ~cycle:_ -> Alcotest.fail "deadlock")
  in
  submit "a";
  submit "b";
  Engine.run engine;
  (match List.rev !order with
  | [ ("a", t1); ("b", t2) ] ->
      checkf "a at 0.1" 0.1 t1;
      checkf "b waits for a" 0.2 t2
  | _ -> Alcotest.fail "both must commit in order");
  checki "one wait" 1 !waits

let test_executor_deadlock_and_restart () =
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  let deadlocks = ref 0 and commits = ref 0 in
  (* Two transactions taking resources in opposite order with a step gap
     forces the classic 2-cycle. *)
  let rec submit resources =
    Executor.run executor ~owner:(Txn_id.Gen.next gen)
      ~steps:(List.map (fun r -> Executor.update_step ~resource:r) resources)
      ~on_commit:(fun () -> incr commits)
      ~on_deadlock:(fun ~cycle:_ ->
        incr deadlocks;
        (* Restart after a beat, as the schemes do. *)
        ignore (Engine.schedule engine ~delay:0.5 (fun () -> submit resources)))
  in
  submit [ 1; 2 ];
  submit [ 2; 1 ];
  Engine.run engine;
  checki "exactly one victim" 1 !deadlocks;
  checki "both eventually commit" 2 !commits

let test_executor_work_runs_under_lock () =
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  let observed = ref [] in
  Executor.run executor ~owner:(Txn_id.Gen.next gen)
    ~steps:
      [
        { Executor.resource = 1; mode = Dangers_lock.Mode.X; cost = None;
          work = (fun () -> observed := 1 :: !observed) };
        { Executor.resource = 2; mode = Dangers_lock.Mode.X; cost = None;
          work = (fun () -> observed := 2 :: !observed) };
      ]
    ~on_commit:(fun () -> observed := 99 :: !observed)
    ~on_deadlock:(fun ~cycle:_ -> Alcotest.fail "deadlock");
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "step order then commit"
    [ 1; 2; 99 ] (List.rev !observed)

let suite =
  [
    Alcotest.test_case "op apply" `Quick test_op_apply;
    Alcotest.test_case "op commutes" `Quick test_op_commutes;
    Alcotest.test_case "all_commute" `Quick test_all_commute;
    QCheck_alcotest.to_alcotest increments_commute_prop;
    Alcotest.test_case "txn id gen" `Quick test_txn_id_gen;
    Alcotest.test_case "executor duration" `Quick test_executor_duration;
    Alcotest.test_case "executor empty commits" `Quick test_executor_empty_commits;
    Alcotest.test_case "executor serializes conflicts" `Quick test_executor_serializes_conflicts;
    Alcotest.test_case "executor deadlock and restart" `Quick test_executor_deadlock_and_restart;
    Alcotest.test_case "executor work under lock" `Quick test_executor_work_runs_under_lock;
  ]
