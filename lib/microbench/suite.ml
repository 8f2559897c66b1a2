(* The benchmark suite: one entry per hot path the paper's cubic laws
   lean on, plus one end-to-end run. Workloads are fixed — quick mode only
   trims sample counts (see [Harness.with_samples]) so numbers from quick
   and full runs stay comparable. *)

module Mode = Dangers_lock.Mode
module Lock_manager = Dangers_lock.Lock_manager
module Engine = Dangers_sim.Engine
module Observe = Dangers_sim.Observe
module Par_engine = Dangers_sim.Par_engine
module Params = Dangers_analytic.Params
module Scheme = Dangers_experiments.Scheme

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

(* The acceptance-bar benchmark: a full eager-group run in the unstable
   regime the paper warns about (nodes=10, small hot database), dominated
   by lock waits, deadlock detection and restarts. *)
let e2e_eager_group () =
  let params = { Params.default with Params.nodes = 10; db_size = 500 } in
  ignore
    (Scheme.run_named "eager-group" (Scheme.spec params) ~seed:7 ~warmup:0.
       ~span:30.)

(* Pure window-synchronization machinery: 8 partitions pass a token around
   a ring with every hop at exactly the lookahead bound, so each window
   fires one event and drains one message — all barrier and merge
   overhead, no simulation payload. This is the cost a parallel run must
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

(* The partitioned update-anywhere scheme at the paper's headline scale
   (100 nodes): every update X-locks all 100 replicas and broadcasts its
   apply, so the run is dominated by cross-partition message routing and
   per-partition event heaps — exactly what --sim-domains spreads across
   cores. Benchmarked at one domain and at four so BENCH_micro records the
   measured speedup next to [host_cores]; on a single-core host the two
   entries are expected to tie (see docs/PARALLEL_SIM.md). *)
let par_eager_n100_params =
  { Params.default with Params.nodes = 100; db_size = 10_000; tps = 1. }

let e2e_par_eager ~domains () =
  Observe.with_domains domains (fun () ->
      ignore
        (Scheme.run_named "par-eager-group"
           (Scheme.spec par_eager_n100_params)
           ~seed:7 ~warmup:0. ~span:4.))

let benches ~quick =
  let scale full b =
    Harness.with_samples (if quick then max 2 (full / 5) else full) b
  in
  [
    scale 20 (Harness.bench ~runs:10 "lock/acquire-release" lock_acquire_release);
    scale 20 (Harness.bench ~runs:10 "lock/contended-fifo" lock_contended_fifo);
    scale 20 (Harness.bench ~runs:10 "lock/deadlock-chain" lock_deadlock_chain);
    scale 10 (Harness.bench "engine/event-throughput" engine_event_throughput);
    scale 20 (Harness.bench ~runs:10 "engine/cancel-churn" engine_cancel_churn);
    scale 10 (Harness.bench "parsim/window-ring" parsim_window_ring);
    scale 5 (Harness.bench ~warmup:1 "e2e/eager-group-n10" e2e_eager_group);
    scale 4
      (Harness.bench ~warmup:1 "e2e/par-eager-n100-d1" (e2e_par_eager ~domains:1));
    scale 4
      (Harness.bench ~warmup:1 "e2e/par-eager-n100-d4" (e2e_par_eager ~domains:4));
  ]
