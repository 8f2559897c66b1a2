(* The component benchmark suite: one entry per hot path the paper's
   cubic laws lean on, each naming the bench/e2e metric it explains. End-to-end numbers come from bench/e2e alone. Workloads are
   fixed — quick mode only trims sample counts, so numbers from quick and
   full runs stay comparable. *)

module Mode = Dangers_lock.Mode
module Lock_table = Dangers_lock.Lock_table
module Engine = Dangers_sim.Engine
module Par_engine = Dangers_sim.Par_engine
module Executor = Dangers_txn.Executor
module Txn_id = Dangers_txn.Txn_id
module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Fstore = Dangers_storage.Store.Fstore

(* Uncontended acquire/release: 100 owners each take 4 private X locks and
   drop them — the fast path of every action that meets no conflict. *)
let lock_acquire_release () =
  let locks = Lock_table.create () in
  for owner = 0 to 99 do
    for r = 0 to 3 do
      ignore
        (Lock_table.request locks ~owner
           ~resource:((owner * 4) + r)
           ~mode:Mode.X ~on_grant:ignore)
    done;
    Lock_table.release_all locks ~owner
  done

(* 64 writers pile up on one object: every blocked request probes the
   waits-for graph down the whole queue, then the release cascade pumps
   the FIFO one grant at a time. *)
let lock_contended_fifo () =
  let locks = Lock_table.create () in
  for owner = 0 to 63 do
    ignore
      (Lock_table.request locks ~owner ~resource:0 ~mode:Mode.X
         ~on_grant:ignore)
  done;
  for owner = 0 to 63 do
    Lock_table.release_all locks ~owner
  done

(* Deadlock detection under contention: owner i holds object i and waits
   for object i+1, so each new wait walks an ever longer chain; the last
   request closes the cycle and must be detected and withdrawn. *)
let lock_deadlock_chain () =
  let n = 32 in
  let locks = Lock_table.create () in
  for i = 0 to n - 1 do
    ignore
      (Lock_table.request locks ~owner:i ~resource:i ~mode:Mode.X
         ~on_grant:ignore)
  done;
  for i = 0 to n - 2 do
    ignore
      (Lock_table.request locks ~owner:i ~resource:(i + 1) ~mode:Mode.X
         ~on_grant:ignore)
  done;
  (match
     Lock_table.request locks ~owner:(n - 1) ~resource:0 ~mode:Mode.X
       ~on_grant:ignore
   with
  | Lock_table.Deadlock _ -> ()
  | Lock_table.Granted | Lock_table.Waiting ->
      failwith "Suite.lock_deadlock_chain: cycle not detected");
  for i = 0 to n - 1 do
    Lock_table.release_all locks ~owner:i
  done

(* The lazy-group shape: a replica apply locks its objects at the
   receiving node, so each of 40 nodes' tables sees short transactions
   spread over all 4,000 of its objects. The tables are built, and every
   resource of every table locked once, on the first call; each call then
   runs 1,000 transactions of 4 X locks and a release, one table after
   another, at resources a fixed stride apart. *)
let lock_wide_tables () =
  let tables = 40 and resources = 4_000 in
  let state =
    lazy
      (let locks = Array.init tables (fun _ -> Lock_table.create ()) in
       let next_owner = ref 0 and cursor = ref 0 in
       let txn table first =
         let owner = !next_owner in
         incr next_owner;
         for r = 0 to 3 do
           ignore
             (Lock_table.request locks.(table) ~owner
                ~resource:((first + (r * 1_009)) mod resources)
                ~mode:Mode.X ~on_grant:ignore)
         done;
         Lock_table.release_all locks.(table) ~owner
       in
       for table = 0 to tables - 1 do
         for first = 0 to resources - 1 do
           txn table first
         done
       done;
       (txn, cursor))
  in
  fun () ->
    let txn, cursor = Lazy.force state in
    for i = 0 to 999 do
      cursor := (!cursor + 1_237) mod resources;
      txn (i mod tables) !cursor
    done

(* The lazy-group replica apply, whole: each root commit's 4-step list is
   built once and run as a replica transaction by every one of 40
   executors on one engine, each over its own 4,000 objects — locks,
   Action_Time events, commit and release. Each call runs 25 commits
   (1,000 replica transactions) at resources a fixed stride apart, so no
   request waits, then drains the engine. Per-run words over 1,000
   transactions of 4 events each explain the allocation behind
   [gc.minor_words_per_event]. *)
let txn_replica_apply () =
  let nodes = 40 and resources = 4_000 in
  let state =
    lazy
      (let engine = Engine.create () in
       let ids = Txn_id.Gen.create () in
       let backoff () = failwith "Suite.txn_replica_apply: deadlock" in
       let executors =
         Array.init nodes (fun _ ->
             Executor.create ~clock:engine ~locks:(Lock_table.create ())
               ~action_time:0.01 ~ids ~backoff ())
       in
       (engine, executors, ref 0))
  in
  let on_commit ~started:_ = () in
  fun () ->
    let engine, executors, cursor = Lazy.force state in
    for _ = 1 to 25 do
      cursor := (!cursor + 1_237) mod resources;
      let steps =
        List.init 4 (fun r ->
            Executor.update_step ~resource:((!cursor + (r * 1_009)) mod resources))
      in
      let steps () = steps in
      Array.iter (fun executor -> Executor.run executor ~steps ~on_commit) executors
    done;
    Engine.run engine

(* The eager deadlock storm's victim path, whole: 100 times over, two
   transactions take objects 1 and 2 in opposite orders; the second
   closes the cycle, is killed, releases its lock (granting the first),
   backs off and restarts through the executor, then both commit. Each
   run makes 100 deadlocks and 100 restarts; its words explain what a
   restart allocates. *)
let txn_deadlock_restart () =
  let state =
    lazy
      (let engine = Engine.create () in
       let restarts = ref 0 in
       let executor =
         Executor.create ~clock:engine ~locks:(Lock_table.create ())
           ~action_time:0.01 ~ids:(Txn_id.Gen.create ())
           ~backoff:(fun () -> 0.05)
           ~on_restart:(fun () -> incr restarts)
           ()
       in
       let forward = [ Executor.update_step ~resource:1; Executor.update_step ~resource:2 ]
       and backward = [ Executor.update_step ~resource:2; Executor.update_step ~resource:1 ] in
       (engine, executor, restarts, (fun () -> forward), fun () -> backward))
  in
  let on_commit ~started:_ = () in
  fun () ->
    let engine, executor, restarts, forward, backward = Lazy.force state in
    let before = !restarts in
    for _ = 1 to 100 do
      Executor.run executor ~steps:forward ~on_commit;
      Executor.run executor ~steps:backward ~on_commit;
      Engine.run engine
    done;
    if !restarts - before <> 100 then
      failwith "Suite.txn_deadlock_restart: expected one restart per pair"

(* The replicas of [sim-par-eager]: 64 nodes, each a full store of 20,000
   objects (Table 2), built as one run of [Par_eager.create] builds them.
   Their columns go straight to the major heap, so this is most of that
   workload's [setup_s]. *)
let store_replicas () =
  ignore
    (Sys.opaque_identity
       (Array.init 64 (fun _ -> Fstore.create ~db_size:20_000 ~init:0.)))

(* The lazy-master slave rule at one replica of 4,000 objects: 1,000
   updates a fixed stride apart, each newer than the replica's stamp, so
   every one is applied. A stamp is an immediate and both columns are
   flat, so a run allocates nothing. *)
let store_apply () =
  let store = Fstore.create ~db_size:4_000 ~init:0. in
  let clock = Timestamp.Clock.create ~node:1 in
  let cursor = ref 0 in
  fun () ->
    for _ = 1 to 1_000 do
      cursor := (!cursor + 1_237) mod 4_000;
      match
        Fstore.apply_if_newer store (Oid.of_int !cursor) 1.5
          (Timestamp.Clock.tick clock)
      with
      | `Applied -> ()
      | `Stale -> failwith "Suite.store_apply: a fresh stamp was stale"
    done

(* Raw event throughput: 8 interleaved self-rescheduling chains firing
   100k events — the schedule/step cycle with no simulation payload. *)
let engine_event_throughput () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired < 100_000 then ignore (Engine.schedule engine ~delay:0.001 tick)
  in
  for _ = 1 to 8 do
    ignore (Engine.schedule engine ~delay:0.0005 tick)
  done;
  Engine.run engine;
  if !fired < 100_000 then failwith "Suite.engine_event_throughput: short run"

(* The heap path: 256 self-rescheduling chains firing 100k events, each at
   a delay no other event shares (the fractional part of i times the
   golden ratio), like random message delays, Poisson arrivals and
   backoffs. No delay repeats, so none is admitted into a FIFO lane and
   every event goes through the heap. *)
let engine_random_delay () =
  let engine = Engine.create () in
  let scheduled = ref 0 in
  let rec tick () =
    if !scheduled < 100_000 then begin
      incr scheduled;
      let golden = float_of_int !scheduled *. 0.6180339887498949 in
      ignore (Engine.schedule engine ~delay:(0.001 *. Float.rem golden 1.) tick)
    end
  in
  for _ = 1 to 256 do
    tick ()
  done;
  Engine.run engine;
  if Engine.events_fired engine < 100_000 then
    failwith "Suite.engine_random_delay: short run"

(* Schedule-then-cancel churn: half the scheduled work is cancelled before
   it fires, the pattern of timeouts and disconnect cycles. *)
let engine_cancel_churn () =
  let engine = Engine.create () in
  for round = 1 to 100 do
    let keep = Engine.schedule engine ~delay:(float_of_int round) ignore in
    for _ = 1 to 50 do
      let doomed = Engine.schedule engine ~delay:2000. ignore in
      Engine.cancel engine doomed
    done;
    ignore keep
  done;
  Engine.run engine

(* Pure window-synchronization machinery: 8 partitions pass a token around
   a ring with every hop at exactly the lookahead bound, so each window
   fires one event and delivers one message — all window and delivery
   phase overhead, no simulation payload. This is the cost a parallel run must
   amortize against its per-window batch. *)
let parsim_window_ring () =
  let parts = 8 in
  let t = Par_engine.create ~parts ~lookahead:0.01 () in
  Par_engine.set_handler t (fun ~src:_ ~dst ~time hops ->
      ignore
        (Engine.schedule_at (Par_engine.engine t dst) ~time (fun () ->
             if hops < 10_000 then
               Par_engine.post t ~src:dst ~dst:((dst + 1) mod parts)
                 ~delay:0.01 (hops + 1))));
  Par_engine.post t ~src:0 ~dst:1 ~delay:0.01 0;
  Par_engine.run t;
  if Par_engine.events_fired t < 10_000 then
    failwith "Suite.parsim_window_ring: short run"

type case = { bench : Harness.bench; explains : string }

let cases ~quick =
  let case ?runs full name explains f =
    let samples = if quick then max 2 (full / 5) else full in
    { bench = Harness.bench ?runs ~samples name f; explains }
  in
  [
    case ~runs:10 20 "lock/acquire-release" "sim.step_ns.p50"
      lock_acquire_release;
    case ~runs:10 20 "lock/contended-fifo" "lock.waits" lock_contended_fifo;
    case ~runs:10 20 "lock/deadlock-chain" "lock.dfs_visits" lock_deadlock_chain;
    case 20 "lock/wide-tables" "sim.step_ns.p50" (lock_wide_tables ());
    case 20 "txn/replica-apply" "gc.minor_words_per_event"
      (txn_replica_apply ());
    case 20 "txn/deadlock-restart" "lock.deadlocks" (txn_deadlock_restart ());
    case 10 "store/replicas-64x20000" "setup_s" store_replicas;
    case ~runs:10 20 "store/apply" "replication.replica_applied_per_commit"
      (store_apply ());
    case 10 "engine/event-throughput" "sim.step_ns.p50" engine_event_throughput;
    case 10 "engine/random-delay" "sim.step_ns.p50" engine_random_delay;
    case ~runs:10 20 "engine/cancel-churn" "sim.queue_high_water"
      engine_cancel_churn;
    case 10 "parsim/window-ring" "parsim.windows" parsim_window_ring;
  ]
