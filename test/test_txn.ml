(* Op, Txn_id, and Executor tests. *)

module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Txn_id = Dangers_txn.Txn_id
module Executor = Dangers_txn.Executor
module Engine = Dangers_sim.Engine
module Lock_table = Dangers_lock.Lock_table
module Trace = Dangers_sim.Trace

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

let make_executor ?(backoff = fun () -> Alcotest.fail "unexpected deadlock")
    ?(on_restart = fun () -> ()) () =
  let engine = Engine.create () in
  let locks = Lock_table.create () in
  let waits = ref 0 in
  let ids = Txn_id.Gen.create () in
  let executor =
    Executor.create
      ~on_wait:(fun () -> incr waits)
      ~on_restart ~clock:engine ~locks ~action_time:0.1 ~ids ~backoff ()
  in
  (engine, executor, waits, ids)

let fixed steps () = steps

let test_executor_duration () =
  let engine, executor, _, _ = make_executor () in
  let committed_at = ref nan in
  let steps =
    List.init 4 (fun i -> Executor.update_step ~resource:i)
  in
  Executor.run executor ~steps:(fixed steps)
    ~on_commit:(fun ~started ->
      checkf "started at submission" 0. started;
      committed_at := Engine.now engine);
  Engine.run engine;
  (* 4 actions x 0.1s, uncontended. *)
  checkf "duration" 0.4 !committed_at;
  checki "done" 0 (Executor.active executor)

let test_executor_empty_commits () =
  let engine, executor, _, _ = make_executor () in
  let committed = ref false in
  Executor.run executor ~steps:(fixed [])
    ~on_commit:(fun ~started:_ -> committed := true);
  checkb "instant commit" true !committed;
  ignore engine

let test_executor_serializes_conflicts () =
  let engine, executor, waits, _ = make_executor () in
  let order = ref [] in
  let submit tag =
    Executor.run executor
      ~steps:(fixed [ Executor.update_step ~resource:42 ])
      ~on_commit:(fun ~started:_ -> order := (tag, Engine.now engine) :: !order)
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

(* Two transactions taking resources in opposite order with a step gap
   force the classic 2-cycle; the executor restarts the victim itself,
   as a new transaction. *)
let test_executor_deadlock_and_restart () =
  let restarts = ref 0 in
  let engine, executor, _, ids =
    make_executor ~backoff:(fun () -> 0.5) ~on_restart:(fun () -> incr restarts) ()
  in
  let commits = ref 0 in
  let submit resources =
    Executor.run executor
      ~steps:(fixed (List.map (fun r -> Executor.update_step ~resource:r) resources))
      ~on_commit:(fun ~started:_ -> incr commits)
  in
  submit [ 1; 2 ];
  submit [ 2; 1 ];
  Engine.run engine;
  checki "exactly one victim" 1 !restarts;
  checki "both eventually commit" 2 !commits;
  checki "the restart took a fresh owner id" 3 (Txn_id.Gen.issued ids)

(* The executor's lock events with their times, from a tracer attached
   to [engine]: a grant as [+resource], a wait as [~resource], a kill as
   [x], a commit as [c], tagged with the attempt's owner. *)
let traced engine =
  let tracer = Trace.create () in
  Engine.set_tracer engine (Some tracer);
  fun () ->
    List.filter_map
      (fun { Trace.at; event } ->
        match event with
        | Trace.Lock_granted { owner; resource } ->
            Some (Printf.sprintf "%d+%d" owner resource, at)
        | Trace.Lock_waited { owner; resource } ->
            Some (Printf.sprintf "%d~%d" owner resource, at)
        | Trace.Deadlock_victim { owner; _ } -> Some (Printf.sprintf "%dx" owner, at)
        | Trace.Txn_committed { owner } -> Some (Printf.sprintf "%dc" owner, at)
        | _ -> None)
      (Trace.entries tracer)

let check_events = Alcotest.(check (list (pair string (float 1e-9))))

(* Steps lock in order, each Action_Time after the last, and the commit
   runs holding them all. *)
let test_executor_work_runs_under_lock () =
  let engine, executor, _, _ = make_executor () in
  let events = traced engine in
  let held = ref [] in
  Executor.run executor
    ~steps:
      (fixed [ Executor.update_step ~resource:1; Executor.update_step ~resource:2 ])
    ~on_commit:(fun ~started:_ ->
      held := Lock_table.held_resources (Executor.locks executor) ~owner:0);
  Engine.run engine;
  check_events "step order then commit"
    [ ("0+1", 0.); ("0+2", 0.1); ("0c", 0.2) ]
    (events ());
  Alcotest.(check (list int)) "commit holds every step's lock" [ 1; 2 ] !held

(* A step's [cost] replaces Action_Time for that step alone. *)
let test_executor_work_order_and_cost () =
  let engine, executor, _, _ = make_executor () in
  let events = traced engine in
  let step ?cost i = { (Executor.update_step ~resource:i) with Executor.cost } in
  let committed_at = ref nan in
  Executor.run executor
    ~steps:(fixed [ step 0; step ~cost:0.5 1; step 2; step 3 ])
    ~on_commit:(fun ~started:_ -> committed_at := Engine.now engine);
  Engine.run engine;
  checkf "0.1 + 0.5 + 0.1 + 0.1" 0.8 !committed_at;
  check_events "step 1 charged its cost, not Action_Time"
    [ ("0+0", 0.); ("0+1", 0.1); ("0+2", 0.6); ("0+3", 0.7); ("0c", 0.8) ]
    (events ())

(* A runs [1; 2], B runs [2; 1]. At 0.1 both finish their first action;
   A then waits for 2, and B's request for 1 closes the cycle, so B is
   the victim: it does not commit. A, granted 2 by B's release, resumes
   at the step it waited on and runs it once. B backs off 0.5 and starts
   over from its first step as owner 2; its commit is told the restarted
   attempt's start. *)
let test_executor_victim_and_resume () =
  let restarts = ref 0 in
  let engine, executor, _, _ =
    make_executor ~backoff:(fun () -> 0.5) ~on_restart:(fun () -> incr restarts) ()
  in
  let events = traced engine in
  let log = ref [] in
  let submit name resources =
    Executor.run executor
      ~steps:(fixed (List.map (fun resource -> Executor.update_step ~resource) resources))
      ~on_commit:(fun ~started ->
        log := (name ^ " commit", Engine.now engine) :: !log;
        log := (name ^ " started", started) :: !log)
  in
  submit "a" [ 1; 2 ];
  submit "b" [ 2; 1 ];
  Engine.run engine;
  checki "one victim" 1 !restarts;
  check_events "b is killed at 0.1; a resumes at 2 and commits"
    [ ("0+1", 0.); ("1+2", 0.); ("0~2", 0.1); ("1x", 0.1); ("0c", 0.2);
      ("2+2", 0.6); ("2+1", 0.7); ("2c", 0.8) ]
    (events ());
  check_events "one commit each, b's from its restart"
    [ ("a commit", 0.2); ("a started", 0.); ("b commit", 0.8); ("b started", 0.6) ]
    (List.rev !log);
  checki "nothing left running" 0 (Executor.active executor)

(* A transaction queued on its first step, granted at the holder's
   commit, runs every step from that one on, one Action_Time apart. *)
let test_executor_resumes_after_wait () =
  let engine, executor, waits, _ = make_executor () in
  let events = traced engine in
  let run steps =
    Executor.run executor
      ~steps:(fixed (List.map (fun resource -> Executor.update_step ~resource) steps))
      ~on_commit:(fun ~started:_ -> ())
  in
  run [ 1; 9 ];
  run [ 1; 2; 3 ];
  Engine.run engine;
  checki "one wait" 1 !waits;
  check_events "granted 1 at 0.2, then one step per Action_Time"
    [ ("0+1", 0.); ("1~1", 0.); ("0+9", 0.1); ("0c", 0.2); ("1+2", 0.3);
      ("1+3", 0.4); ("1c", 0.5) ]
    (events ())

(* Minor words from [Executor.run] of [n] uncontended update steps until
   the engine drains. *)
let txn_words engine executor n =
  let steps = List.init n (fun i -> Executor.update_step ~resource:i) in
  let steps () = steps in
  let on_commit ~started:_ = () in
  let w0 = Gc.minor_words () in
  Executor.run executor ~steps ~on_commit;
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
   one per-submission set: the submission record (header, owner,
   remaining, started: 4 words) and one block holding the three mutually
   recursive closures (3 x 2 words of code pointer and arity, 2 infix
   headers, 5 captured values, 1 header: 14 words). Lock requests and
   the release allocate nothing once the table's pools are warm.
   [DANGERS_LOCK_DEBUG]'s self-check after every lock-table mutation
   allocates, so the transaction counts are asserted only without it. *)
let test_executor_words_per_step () =
  let per_event = engine_words_per_event 1_000 in
  checkf "engine words per event: event record + clock box" 5. per_event;
  let engine, executor, _, _ = make_executor () in
  (* Warm the lock table's pools and the engine's arrays. *)
  for _ = 1 to 3 do
    ignore (txn_words engine executor 8)
  done;
  let w4 = txn_words engine executor 4 in
  let w8 = txn_words engine executor 8 in
  if not Dangers_lock.Lock_table.debug then begin
    checkf "words per step = the engine's per event" per_event
      ((w8 -. w4) /. 4.);
    checkf "4-step transaction: 18 + 4 x 5 words" 38. w4
  end

(* Minor words of one submission of steps [2; 1] that is killed by
   deadlock [k] times, then commits. Each round an adversary, outside
   the executor, takes lock 1 and queues for lock 2 while the submission
   holds 2, so the submission's request for 1 closes the cycle; the
   adversary releases both locks half a second after the kill, and the
   backoff of 1 s restarts the submission past that. *)
let restart_words engine executor locks restarts k =
  let steps = [ Executor.update_step ~resource:2; Executor.update_step ~resource:1 ] in
  let steps () = steps in
  let on_commit ~started:_ = () in
  let adversary = ref 0 and rounds = ref k in
  let on_grant () = () in
  let setup () =
    incr adversary;
    ignore
      (Lock_table.request locks ~owner:(- !adversary) ~resource:1
         ~mode:Dangers_lock.Mode.X ~on_grant);
    ignore
      (Lock_table.request locks ~owner:(- !adversary) ~resource:2
         ~mode:Dangers_lock.Mode.X ~on_grant)
  in
  let release () = Lock_table.release_all locks ~owner:(- !adversary) in
  restarts :=
    (fun () ->
      decr rounds;
      ignore (Engine.schedule engine ~delay:0.5 release);
      if !rounds > 0 then ignore (Engine.schedule engine ~delay:1.05 setup));
  let w0 = Gc.minor_words () in
  if k > 0 then ignore (Engine.schedule engine ~delay:0.05 setup);
  Executor.run executor ~steps ~on_commit;
  Engine.run engine;
  let words = Gc.minor_words () -. w0 in
  checki "rounds played" 0 !rounds;
  words

(* A restart allocates no per-submission state again: a submission
   killed k times costs its uncontended words plus a fixed amount per
   round. Of the 44 words a round adds, the submission's killed attempt
   accounts for 27: its first step's engine event (5), its waiter record
   (4), its memoized blocker list [adversary] (3), the cycle (two cells,
   6, in [Some] and [Deadlock], 4) and the backoff's engine event (5).
   The adversary accounts for 17: two engine events (10), its waiter
   record (4) and its blocker list [submission] (3). *)
let test_executor_restart_words () =
  let hook = ref (fun () -> ()) in
  let engine = Engine.create () in
  let locks = Lock_table.create () in
  let executor =
    Executor.create ~clock:engine ~locks ~action_time:0.1
      ~ids:(Txn_id.Gen.create ())
      ~backoff:(fun () -> 1.0)
      ~on_restart:(fun () -> !hook ())
      ()
  in
  for _ = 1 to 3 do
    ignore (restart_words engine executor locks hook 3)
  done;
  let words = List.map (restart_words engine executor locks hook) [ 0; 1; 2; 3 ] in
  if not Dangers_lock.Lock_table.debug then begin
    checkf "uncontended 2-step submission: 18 + 2 x 5 words" 28. (List.hd words);
    Alcotest.check
      (Alcotest.list (Alcotest.float 0.))
      "k restarts: uncontended words + 44 k"
      (List.map (fun k -> List.hd words +. (44. *. float_of_int k)) [ 0; 1; 2; 3 ])
      words
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
    Alcotest.test_case "executor restart words" `Quick test_executor_restart_words;
  ]
