(* The component benchmark suite: one entry per hot path the paper's
   cubic laws lean on, each naming the bench/e2e per-layer metric it
   explains. End-to-end numbers come from bench/e2e alone. Workloads are
   fixed — quick mode only trims sample counts, so numbers from quick and
   full runs stay comparable. *)

module Mode = Dangers_lock.Mode
module Lock_manager = Dangers_lock.Lock_manager
module Engine = Dangers_sim.Engine
module Par_engine = Dangers_sim.Par_engine

(* Uncontended acquire/release: 100 owners each take 4 private X locks and
   drop them — the fast path of every action that meets no conflict. *)
let lock_acquire_release () =
  let locks = Lock_manager.create () in
  for owner = 0 to 99 do
    for r = 0 to 3 do
      ignore
        (Lock_manager.request locks ~owner
           ~resource:((owner * 4) + r)
           ~mode:Mode.X ~on_grant:ignore)
    done;
    Lock_manager.release_all locks ~owner
  done

(* 64 writers pile up on one object: every blocked request probes the
   waits-for graph down the whole queue, then the release cascade pumps
   the FIFO one grant at a time. *)
let lock_contended_fifo () =
  let locks = Lock_manager.create () in
  for owner = 0 to 63 do
    ignore
      (Lock_manager.request locks ~owner ~resource:0 ~mode:Mode.X
         ~on_grant:ignore)
  done;
  for owner = 0 to 63 do
    Lock_manager.release_all locks ~owner
  done

(* Deadlock detection under contention: owner i holds object i and waits
   for object i+1, so each new wait walks an ever longer chain; the last
   request closes the cycle and must be detected and withdrawn. *)
let lock_deadlock_chain () =
  let n = 32 in
  let locks = Lock_manager.create () in
  for i = 0 to n - 1 do
    ignore
      (Lock_manager.request locks ~owner:i ~resource:i ~mode:Mode.X
         ~on_grant:ignore)
  done;
  for i = 0 to n - 2 do
    ignore
      (Lock_manager.request locks ~owner:i ~resource:(i + 1) ~mode:Mode.X
         ~on_grant:ignore)
  done;
  (match
     Lock_manager.request locks ~owner:(n - 1) ~resource:0 ~mode:Mode.X
       ~on_grant:ignore
   with
  | Lock_manager.Deadlock _ -> ()
  | Lock_manager.Granted | Lock_manager.Waiting ->
      failwith "Suite.lock_deadlock_chain: cycle not detected");
  for i = 0 to n - 1 do
    Lock_manager.release_all locks ~owner:i
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
    case 10 "engine/event-throughput" "sim.step_ns.p50" engine_event_throughput;
    case ~runs:10 20 "engine/cancel-churn" "sim.queue_high_water"
      engine_cancel_churn;
    case 10 "parsim/window-ring" "parsim.windows" parsim_window_ring;
  ]
