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

(* [work] of each step runs Action_Time after its grant, in step order;
   a step's [cost] replaces Action_Time for that step alone. *)
let test_executor_work_order_and_cost () =
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  let log = ref [] in
  let step ?cost i =
    { (Executor.update_step ~resource:i) with
      Executor.cost;
      work = (fun () -> log := (i, Engine.now engine) :: !log) }
  in
  Executor.run executor ~owner:(Txn_id.Gen.next gen)
    ~steps:[ step 0; step ~cost:0.5 1; step 2; step 3 ]
    ~on_commit:(fun () -> log := (99, Engine.now engine) :: !log)
    ~on_deadlock:(fun ~cycle:_ -> Alcotest.fail "deadlock");
  Engine.run engine;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "work in step order; step 1 charged its cost, not Action_Time"
    [ (0, 0.1); (1, 0.6); (2, 0.7); (3, 0.8); (99, 0.8) ]
    (List.rev !log)

(* A runs [1; 2], B runs [2; 1]. At 0.1 both finish their first action;
   A then waits for 2, and B's request for 1 closes the cycle, so B is
   the victim: its second step's work never runs. A, granted 2 by B's
   release, resumes at the step it waited on and runs it once. *)
let test_executor_victim_and_resume () =
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  let log = ref [] in
  let step tag resource =
    { (Executor.update_step ~resource) with
      Executor.work = (fun () -> log := (tag, Engine.now engine) :: !log) }
  in
  let victims = ref [] in
  let submit name steps =
    Executor.run executor ~owner:(Txn_id.Gen.next gen) ~steps
      ~on_commit:(fun () -> log := (name ^ " commit", Engine.now engine) :: !log)
      ~on_deadlock:(fun ~cycle:_ -> victims := name :: !victims)
  in
  submit "a" [ step "a1" 1; step "a2" 2 ];
  submit "b" [ step "b1" 2; step "b2" 1 ];
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.string) "b is the victim" [ "b" ]
    !victims;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "b2 never runs; a resumes at a2"
    [ ("a1", 0.1); ("b1", 0.1); ("a2", 0.2); ("a commit", 0.2) ]
    (List.rev !log);
  checki "nothing left running" 0 (Executor.active executor)

(* A transaction queued on its first step, granted at the holder's
   commit, runs every step from that one on, one Action_Time apart. *)
let test_executor_resumes_after_wait () =
  let engine, executor, waits = make_executor () in
  let gen = Txn_id.Gen.create () in
  let log = ref [] in
  let step i =
    { (Executor.update_step ~resource:i) with
      Executor.work = (fun () -> log := (i, Engine.now engine) :: !log) }
  in
  let run steps =
    Executor.run executor ~owner:(Txn_id.Gen.next gen) ~steps
      ~on_commit:ignore
      ~on_deadlock:(fun ~cycle:_ -> Alcotest.fail "deadlock")
  in
  run [ Executor.update_step ~resource:1; Executor.update_step ~resource:9 ];
  run [ step 1; step 2; step 3 ];
  Engine.run engine;
  checki "one wait" 1 !waits;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "granted at 0.2, then one step per Action_Time"
    [ (1, 0.3); (2, 0.4); (3, 0.5) ]
    (List.rev !log)

(* Minor words from [Executor.run] of [n] uncontended update steps until
   the engine drains. *)
let txn_words engine executor gen n =
  let steps = List.init n (fun i -> Executor.update_step ~resource:i) in
  let on_commit () = () in
  let on_deadlock ~cycle:_ = Alcotest.fail "deadlock" in
  let owner = Txn_id.Gen.next gen in
  let w0 = Gc.minor_words () in
  Executor.run executor ~owner ~steps ~on_commit ~on_deadlock;
  Engine.run engine;
  Gc.minor_words () -. w0

(* Minor words per event of a bare engine: a chain of [n] events, each
   at a later time, firing one preallocated closure. *)
let engine_words_per_event n =
  let engine = Engine.create () in
  let left = ref n in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      ignore (Engine.schedule engine ~delay:0.1 tick)
    end
  in
  tick ();
  Engine.run engine;
  left := n;
  let w0 = Gc.minor_words () in
  tick ();
  Engine.run engine;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A step allocates what the engine allocates per event, and nothing
   else: the event record (header, action, cancelled: 3 words) and the
   box of the advanced clock (header and a double: 2 words). The rest is
   one per-transaction set: the [remaining] ref (2 words) and one block
   holding the three mutually recursive closures (3 x 2 words of code
   pointer and arity, 2 infix headers, 6 captured values, 1 header: 15
   words). Lock requests and the waiter-free release allocate nothing
   once the table's pools are warm. [DANGERS_LOCK_DEBUG]'s self-check
   after every lock-table mutation allocates, so the transaction counts
   are asserted only without it. *)
let test_executor_words_per_step () =
  let per_event = engine_words_per_event 1_000 in
  checkf "engine words per event: event record + clock box" 5. per_event;
  let engine, executor, _ = make_executor () in
  let gen = Txn_id.Gen.create () in
  (* Warm the lock table's pools and the engine's arrays. *)
  for _ = 1 to 3 do
    ignore (txn_words engine executor gen 8)
  done;
  let w4 = txn_words engine executor gen 4 in
  let w8 = txn_words engine executor gen 8 in
  if not Dangers_lock.Lock_table.debug then begin
    checkf "words per step = the engine's per event" per_event
      ((w8 -. w4) /. 4.);
    checkf "4-step transaction: 17 + 4 x 5 words" 37. w4
  end

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
    Alcotest.test_case "executor work order and cost" `Quick test_executor_work_order_and_cost;
    Alcotest.test_case "executor victim and resume" `Quick test_executor_victim_and_resume;
    Alcotest.test_case "executor resumes after wait" `Quick test_executor_resumes_after_wait;
    Alcotest.test_case "executor words per step" `Quick test_executor_words_per_step;
  ]
