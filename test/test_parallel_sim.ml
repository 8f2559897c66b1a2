(* The conservative parallel engine and its determinism-equivalence
   guarantee: partition routing, window synchronization, the Domain pool,
   and — the headline — byte-identical fixed-seed runs for every
   registered scheme at --jobs 1, 2 and 4. *)

module Engine = Dangers_sim.Engine
module Partition = Dangers_sim.Partition
module Par_engine = Dangers_sim.Par_engine
module Observe = Dangers_sim.Observe
module Trace_export = Dangers_sim.Trace_export
module Domain_pool = Dangers_util.Domain_pool
module Obs = Dangers_obs.Metrics
module Json = Dangers_obs.Json
module Params = Dangers_analytic.Params
module Scheme = Dangers_experiments.Scheme
module Sweep = Dangers_runner.Sweep
module Export = Dangers_runner.Export
module Par_eager = Dangers_replication.Par_eager
module Delay = Dangers_runtime.Delay

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Engine.next_time: the window bound must skip cancelled roots --- *)

let test_next_time_skips_cancelled () =
  let e = Engine.create () in
  checkb "empty" true (Engine.next_time e = None);
  let first = Engine.schedule e ~delay:1. ignore in
  ignore (Engine.schedule e ~delay:2. ignore);
  checkf "min" 1. (Option.get (Engine.next_time e));
  Engine.cancel e first;
  checkf "cancelled root skipped" 2. (Option.get (Engine.next_time e));
  ignore (Engine.step e);
  checkb "drained" true (Engine.next_time e = None);
  (* next_time pops dead roots but must not fire anything *)
  checki "no cancelled event fired" 1 (Engine.events_fired e)

(* --- Engine lifecycle: fired and cancelled events must not pin closures --- *)

let weak_of_list xs =
  let w = Weak.create (List.length xs) in
  List.iteri (fun i x -> Weak.set w i (Some x)) xs;
  w

let live w =
  let n = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr n
  done;
  !n

(* One event at each time 1..n whose closure captures its own box; events
   at even times are cancelled straight away. Only the weak view of the
   boxes escapes, so whatever stays alive is pinned by the engine. *)
let[@inline never] schedule_boxes e ~n =
  let boxes = List.init n (fun i -> ref i) in
  List.iteri
    (fun i box ->
      let time = i + 1 in
      let ev = Engine.schedule e ~delay:(float_of_int time) (fun () -> incr box) in
      if time mod 2 = 0 then Engine.cancel e ev)
    boxes;
  weak_of_list boxes

let test_pop_releases_slot () =
  let e = Engine.create () in
  let w = schedule_boxes e ~n:16 in
  Engine.run e;
  Gc.full_major ();
  checkb
    (Printf.sprintf "fired and cancelled closures collectable (%d live)" (live w))
    true (live w <= 1)

let test_run_until_releases_cancelled () =
  let e = Engine.create () in
  let w = schedule_boxes e ~n:16 in
  Engine.run e ~until:8.5;
  Gc.full_major ();
  (* still pending: the live events at 9, 11, 13 and 15 *)
  checkb "pending closures kept" true
    (List.for_all (fun time -> Weak.check w (time - 1)) [ 9; 11; 13; 15 ]);
  checkb
    (Printf.sprintf "fired and cancelled closures collectable (%d live)" (live w))
    true (live w <= 5);
  (* also keeps the engine itself reachable across the collection *)
  checki "four still pending" 4 (Engine.pending e)

(* --- Partition router: per-destination order and the conservative check --- *)

(* Drain every destination, on a pool of [pool_size] domains, into one
   log per destination (no state shared between deliveries). *)
let drain_per_destination ~pool_size r =
  let parts = Partition.parts r in
  let logs = Array.make parts [] in
  let drain dst =
    Partition.drain r ~dst ~deliver:(fun p ->
        if p.Partition.p_dst <> dst then failwith "delivered to the wrong drain";
        logs.(dst) <- p.Partition.p_msg :: logs.(dst))
  in
  (if pool_size <= 1 then
     (* destinations are independent: drain them last to first *)
     for dst = parts - 1 downto 0 do
       drain dst
     done
   else begin
     let pool = Domain_pool.create ~workers:pool_size in
     Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () ->
         Domain_pool.parallel_for pool ~n:parts ~f:drain)
   end);
  Array.map (fun log -> String.concat "," (List.rev log)) logs

let test_router_merge_order () =
  let r = Partition.create ~parts:3 ~lookahead:0.5 in
  (* each destination receives in (time, src, per-source seq) order,
     however the posts to other destinations interleave with it *)
  Partition.post r ~src:2 ~dst:0 ~time:1.0 "c";
  Partition.post r ~src:1 ~dst:0 ~time:1.0 "b1";
  Partition.post r ~src:1 ~dst:2 ~time:0.5 "x";
  Partition.post r ~src:1 ~dst:0 ~time:1.0 "b2";
  Partition.post r ~src:2 ~dst:0 ~time:0.75 "a";
  Partition.post r ~src:0 ~dst:1 ~time:0.75 "y";
  checki "pending" 6 (Partition.pending r);
  let logs = drain_per_destination ~pool_size:1 r in
  checks "dst 0" "a,b1,b2,c" logs.(0);
  checks "dst 1" "y" logs.(1);
  checks "dst 2" "x" logs.(2);
  checki "nothing left" 0 (Partition.pending r);
  checki "posted" 6 (Partition.posts_total r);
  checki "delivered" 6 (Partition.delivered_total r)

(* Equal-time posts from three sources to one destination, plus two
   posts from one source: source breaks the time tie, per-source sequence
   the source tie — at any pool size. *)
let test_router_ties_per_destination () =
  List.iter
    (fun pool_size ->
      let r = Partition.create ~parts:4 ~lookahead:0.5 in
      Partition.post r ~src:3 ~dst:0 ~time:2.0 "d";
      Partition.post r ~src:2 ~dst:0 ~time:2.0 "c1";
      Partition.post r ~src:1 ~dst:0 ~time:2.0 "b";
      Partition.post r ~src:2 ~dst:3 ~time:2.0 "z";
      Partition.post r ~src:2 ~dst:0 ~time:2.0 "c2";
      Partition.post r ~src:3 ~dst:0 ~time:1.5 "a";
      let logs = drain_per_destination ~pool_size r in
      let pool = Printf.sprintf "pool=%d " pool_size in
      checks (pool ^ "dst 0") "a,b,c1,c2,d" logs.(0);
      checks (pool ^ "dst 3") "z" logs.(3);
      checks (pool ^ "dst 1") "" logs.(1))
    [ 1; 2 ]

let test_router_conservative_violation () =
  let r = Partition.create ~parts:2 ~lookahead:0.5 in
  Partition.advance r ~part:0 ~time:10.;
  Partition.advance r ~part:1 ~time:10.;
  Partition.post r ~src:0 ~dst:1 ~time:9. "late";
  checkb "delivery into the past rejected" true
    (match Partition.drain r ~dst:1 ~deliver:ignore with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_router_safe_time () =
  let r = Partition.create ~parts:3 ~lookahead:0.25 in
  Partition.advance r ~part:1 ~time:4.;
  Partition.advance r ~part:2 ~time:6.;
  (* dst 0's bound is the slowest *other* partition plus lookahead *)
  checkf "safe time" 4.25 (Partition.safe_time r ~dst:0);
  checkf "excludes self" 0.25 (Partition.safe_time r ~dst:1);
  let solo = Partition.create ~parts:1 ~lookahead:0.25 in
  checkb "single partition is unbounded" true
    (Partition.safe_time solo ~dst:0 = infinity)

(* --- QCheck: arbitrary cross-partition schedules ---

   Each case is a batch of (src, dst, delay) sends fanned out from a
   driver event per partition at time 0, so a source's sequence follows
   op order. Delays are coarse, so delivery times tie often. Each
   destination must receive its messages in (time, src, seq) order — the
   order one serial engine would fire them in, with ties broken by source
   — and none may precede the receiver's clock. Checked inline and on a
   two-domain pool, logging per destination so concurrent deliveries
   share no state. *)

let router_order_prop =
  let gen =
    QCheck.list_of_size
      (QCheck.Gen.int_range 1 60)
      QCheck.(triple (int_range 0 3) (int_range 0 3) (int_range 1 20))
  in
  QCheck.Test.make ~count:100
    ~name:"par engine delivers in serial-heap order per destination, never early"
    gen
    (fun ops ->
      let parts = 4 in
      let lookahead = 0.05 in
      let delay units = lookahead +. (float_of_int units /. 100.) in
      let deliveries ~pool_size =
        let t = Par_engine.create ~parts ~lookahead () in
        let logs = Array.make parts [] in
        Par_engine.set_handler t (fun ~src:_ ~dst ~time i ->
            let e = Par_engine.engine t dst in
            if time < Engine.now e then
              QCheck.Test.fail_report "delivered before the receiver's clock";
            logs.(dst) <- i :: logs.(dst);
            ignore (Engine.schedule_at e ~time ignore));
        for p = 0 to parts - 1 do
          ignore
            (Engine.schedule (Par_engine.engine t p) ~delay:0. (fun () ->
                 List.iteri
                   (fun i (src, dst, units) ->
                     if src = p && src <> dst then
                       Par_engine.post t ~src ~dst ~delay:(delay units) i)
                   ops))
        done;
        (if pool_size <= 1 then Par_engine.run t
         else begin
           let pool = Domain_pool.create ~workers:pool_size in
           Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () ->
               Par_engine.run ~pool t)
         end);
        Array.map List.rev logs
      in
      let expected =
        Array.init parts (fun dst ->
            List.mapi (fun i (src, d, units) -> (delay units, src, i, d)) ops
            |> List.filter (fun (_, src, _, d) -> d = dst && src <> dst)
            |> List.sort compare
            |> List.map (fun (_, _, i, _) -> i))
      in
      deliveries ~pool_size:1 = expected && deliveries ~pool_size:2 = expected)

(* --- Windows on a real pool: identical at any pool size --- *)

(* A deterministic two-level scatter: every delivered token forwards to
   the next partition until its hop budget runs out, so the run crosses
   many windows and every partition both sends and receives. *)
let run_scatter ~pool_size =
  let parts = 4 in
  let t = Par_engine.create ~parts ~lookahead:0.1 () in
  Par_engine.set_handler t (fun ~src:_ ~dst ~time hops ->
      ignore
        (Engine.schedule_at (Par_engine.engine t dst) ~time (fun () ->
             if hops > 0 then begin
               Par_engine.post t ~src:dst ~dst:((dst + 1) mod parts)
                 ~delay:0.1 (hops - 1);
               Par_engine.post t ~src:dst ~dst:((dst + 3) mod parts)
                 ~delay:0.15 (hops / 2)
             end)));
  for p = 0 to parts - 1 do
    Par_engine.post t ~src:p ~dst:((p + 1) mod parts) ~delay:0.1 12
  done;
  let run () = Par_engine.run t in
  (if pool_size <= 1 then run ()
   else begin
     let pool = Domain_pool.create ~workers:pool_size in
     Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () ->
         Par_engine.run ~pool t)
   end);
  let per_engine p =
    let e = Par_engine.engine t p in
    (Engine.events_fired e, Engine.queue_high_water e, Engine.now e)
  in
  ( List.init parts per_engine,
    ( Par_engine.windows t,
      Par_engine.stalls t,
      Par_engine.posts_total t,
      Par_engine.delivered_total t ) )

let test_pool_sizes_equivalent () =
  let serial = run_scatter ~pool_size:1 in
  List.iter
    (fun pool_size ->
      checkb
        (Printf.sprintf "pool=%d equals pool=1" pool_size)
        true
        (run_scatter ~pool_size = serial))
    [ 2; 4 ];
  let engines, (windows, _, posts, delivered) = serial in
  checkb "crossed several windows" true (windows > 10);
  checki "no message lost" posts delivered;
  List.iter
    (fun (fired, hw, _) ->
      checkb "every partition fired" true (fired > 0);
      checkb "high water tracked" true (hw >= 1))
    engines

let test_domain_pool_basics () =
  let pool = Domain_pool.create ~workers:3 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () ->
      checki "size" 3 (Domain_pool.size pool);
      let hits = Array.make 17 0 in
      Domain_pool.parallel_for pool ~n:17 ~f:(fun i ->
          hits.(i) <- hits.(i) + 1);
      checkb "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      checkb "failure re-raised" true
        (match
           Domain_pool.parallel_for pool ~n:8 ~f:(fun i ->
               if i = 5 then failwith "boom")
         with
        | exception Failure _ -> true
        | () -> false);
      (* the pool survives a failed round *)
      Domain_pool.parallel_for pool ~n:4 ~f:ignore)

(* --- The tentpole: every scheme, byte-identical at jobs 1/2/4 ---

   One observed single-task run per (scheme, jobs), so the whole budget
   goes to the task's own simulation; the comparison key is
   everything a run externalizes — summary, diagnostics, deadlock counts
   (via the export record), the metrics snapshot and the trace export —
   minus wall-clock phase profiles, which are honest nondeterminism. *)

let strip_phases snap = { snap with Obs.s_phases = [] }

let scheme_fingerprint ~jobs name =
  let params =
    { Params.default with db_size = 300; nodes = 3; tps = 4.; actions = 3 }
  in
  let task =
    Sweep.Scheme_task
      { scheme = name; spec = Scheme.spec params; seed = 42; warmup = 1.;
        span = 6. }
  in
  match Sweep.run_observed ~jobs ~trace:true [ task ] with
  | [ (item, o) ] ->
      String.concat "\n"
        [
          Export.to_jsonl [ Export.record_of_item item ];
          Json.to_string (Obs.snapshot_to_json (strip_phases o.o_snapshot));
          Trace_export.to_jsonl (Option.to_list o.o_trace);
        ]
  | _ -> assert false

let test_schemes_equivalent_across_domains () =
  List.iter
    (fun scheme ->
      let name = Scheme.name scheme in
      let serial = scheme_fingerprint ~jobs:1 name in
      List.iter
        (fun jobs ->
          checks
            (Printf.sprintf "%s: jobs=%d byte-identical to 1" name jobs)
            serial
            (scheme_fingerprint ~jobs name))
        [ 2; 4 ])
    Scheme.all

(* --- queue_high_water pin: engine reuse across domain budgets ---

   The partitioned scheme reports each node engine's high-water mark as a
   max-merged gauge. It is a pure function of the event schedule, so
   rerunning the same seed under different domain budgets — partitions
   remapped onto 1, 2 then 4 domains — must reproduce it exactly. *)

let par_eager_high_water ~domains =
  let registry = Obs.create () in
  Observe.with_observation ~obs:registry (fun () ->
      let params =
        { Params.default with db_size = 200; nodes = 4; tps = 3. }
      in
      let t = Par_eager.create params ~seed:11 in
      Par_eager.start t;
      Par_eager.measure ~domains t ~warmup:1. ~span:8.;
      Par_eager.quiesce ~domains t);
  Option.get (Obs.snapshot_gauge (Obs.snapshot registry) "engine.queue_high_water")

let test_queue_high_water_pinned_across_domains () =
  let serial = par_eager_high_water ~domains:1 in
  checkb "meaningful backlog" true (serial >= 4.);
  List.iter
    (fun domains ->
      checkf
        (Printf.sprintf "domains=%d high water" domains)
        serial
        (par_eager_high_water ~domains))
    [ 2; 4 ]

(* --- Par_eager directly: stores, clocks and diagnostics line up --- *)

let par_eager_full_state ~domains =
  let params = { Params.default with db_size = 150; nodes = 4; tps = 3. } in
  let t = Par_eager.create params ~seed:5 in
  Par_eager.start t;
  Par_eager.measure ~domains t ~warmup:1. ~span:10.;
  Par_eager.quiesce ~domains t;
  let summary = Format.asprintf "%a" Par_eager.Repl_stats.pp_summary (Par_eager.summary t) in
  let fingerprints = List.init 4 (Par_eager.store_fingerprint t) in
  (summary, fingerprints, Par_eager.diagnostics t, Par_eager.converged t)

let test_par_eager_state_equivalent () =
  let (summary, fingerprints, diags, converged) as serial =
    par_eager_full_state ~domains:1
  in
  checkb "replicas converged after quiesce" true converged;
  checkb "one-copy state reached" true (List.length fingerprints = 4);
  checkb "scheme made progress" true
    (String.length summary > 0
    && List.assoc "channel_posts" diags > 0.
    && List.assoc "windows" diags > 0.);
  List.iter
    (fun domains ->
      checkb
        (Printf.sprintf "domains=%d full state equals serial" domains)
        true
        (par_eager_full_state ~domains = serial))
    [ 2; 4 ]

(* --- Par_eager probes and lock release --- *)

(* Probes follow a waiter's conflicting holders and the conflicting
   waiters queued ahead of it, so every cycle at small N is found by a
   probe: none waits out the lock-timeout backstop, and every restart is
   a detected deadlock. *)
let test_par_eager_probes_find_every_deadlock () =
  let params = { Params.default with db_size = 200; nodes = 4; tps = 3. } in
  List.iter
    (fun seed ->
      let t = Par_eager.create params ~seed in
      Par_eager.start t;
      Par_eager.measure t ~warmup:5. ~span:20.;
      let summary = Par_eager.summary t in
      checkb (Printf.sprintf "seed %d: deadlocks occur" seed) true
        (summary.deadlocks > 0);
      checkf (Printf.sprintf "seed %d: no timeout aborts" seed) 0.
        (List.assoc "timeout_aborts" (Par_eager.diagnostics t));
      checki (Printf.sprintf "seed %d: restarts = deadlocks" seed)
        summary.deadlocks summary.restarts)
    [ 1; 2; 3; 4; 5 ]

(* Under a non-FIFO delay model an abort's Release can overtake the
   Lock_req it undoes; the grant that follows reaches a dead transaction's
   home, which must release it again. A lock left held blocks every later
   transaction on that object, so the drain would never end — and
   [quiesce] fails if any lock is still held once it does. *)
let test_par_eager_stale_grant_released () =
  let params = { Params.default with db_size = 600; nodes = 4; tps = 2. } in
  List.iter
    (fun seed ->
      let t =
        Par_eager.create ~delay:(Delay.Uniform { lo = 0.05; hi = 0.5 }) params
          ~seed
      in
      Par_eager.start t;
      Par_eager.measure t ~warmup:0. ~span:20.;
      Par_eager.quiesce ~max_events:5_000_000 t;
      checkb (Printf.sprintf "seed %d: replicas converged" seed) true
        (Par_eager.converged t))
    [ 1; 2; 3; 4; 5; 6 ]

(* --- Par_eager at the benchmark's width ---

   64 nodes, where many sources post to one destination at the same
   window and ties at a destination are common. The text is exactly what
   [dangers simulate --scheme par-eager-group --nodes 64 --db-size 5000
   --tps 1 --span 2 --seed 42] prints, pinned at every domain count. *)

let par_eager_64_expected =
  "par-eager-group over 2.0s:\n\
   commits=146 (73.000/s) waits=1536 (768.0000/s) deadlocks=14 (7.00000/s)\n\
   restarts=14 reconciliations=0 (0.00000/s) mean duration=0.4458s\n\
   diagnostics: windows=139 lookahead_stalls=112 null_messages=112 \
   channel_posts=366469 deadlock_probes=3261 timeout_aborts=0 \
   apply_dropped=0\n"

let par_eager_64_output ~jobs =
  let params =
    { Params.default with nodes = 64; db_size = 5000; tps = 1. }
  in
  let task =
    Sweep.Scheme_task
      { scheme = "par-eager-group"; spec = Scheme.spec params; seed = 42;
        warmup = 5.; span = 2. }
  in
  match Sweep.run ~jobs [ task ] with
  | [ Sweep.Scheme_item { outcome; _ } ] ->
      Format.asprintf "%a@.diagnostics:%a@." Par_eager.Repl_stats.pp_summary
        outcome.Scheme.summary
        (fun ppf -> List.iter (fun (k, v) -> Format.fprintf ppf " %s=%g" k v))
        outcome.Scheme.diagnostics
  | _ -> assert false

let test_par_eager_pinned_at_64_nodes () =
  let stray_before = Dangers_obs.Warnings.count ~key:"par_eager.stray_grant" in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "jobs=%d output" jobs)
        par_eager_64_expected
        (par_eager_64_output ~jobs))
    [ 1; 2; 4 ];
  checki "no stray grants" stray_before
    (Dangers_obs.Warnings.count ~key:"par_eager.stray_grant")

(* --- The budget split: several par-eager tasks under one budget ---

   At jobs=4, two tasks run on 2 workers x 2 domains each and three on
   3 workers x 1 domain; both must export what the serial run does. *)

let par_eager_tasks ~count =
  let params =
    { Params.default with db_size = 300; nodes = 3; tps = 4.; actions = 3 }
  in
  Sweep.scheme_tasks ~warmup:1. ~span:6.
    ~seeds:(List.init count (fun i -> 42 + i))
    ~specs:[ Scheme.spec params ] [ "par-eager-group" ]

let test_budget_split_equivalent () =
  List.iter
    (fun count ->
      let tasks = par_eager_tasks ~count in
      let export jobs =
        Export.to_jsonl (List.map Export.record_of_item (Sweep.run ~jobs tasks))
      in
      checks
        (Printf.sprintf "%d tasks: jobs=4 byte-identical to 1" count)
        (export 1) (export 4))
    [ 2; 3 ]

let suite =
  [
    Alcotest.test_case "next_time skips cancelled roots" `Quick
      test_next_time_skips_cancelled;
    Alcotest.test_case "heap pop releases slot" `Quick test_pop_releases_slot;
    Alcotest.test_case "run ~until releases cancelled closures" `Quick
      test_run_until_releases_cancelled;
    Alcotest.test_case "router merge order" `Quick test_router_merge_order;
    Alcotest.test_case "router ties per destination" `Quick
      test_router_ties_per_destination;
    Alcotest.test_case "router rejects past delivery" `Quick
      test_router_conservative_violation;
    Alcotest.test_case "router safe time" `Quick test_router_safe_time;
    QCheck_alcotest.to_alcotest router_order_prop;
    Alcotest.test_case "pool sizes equivalent" `Slow test_pool_sizes_equivalent;
    Alcotest.test_case "domain pool basics" `Quick test_domain_pool_basics;
    Alcotest.test_case "all schemes identical at jobs 1/2/4" `Slow
      test_schemes_equivalent_across_domains;
    Alcotest.test_case "queue high water pinned across domains" `Slow
      test_queue_high_water_pinned_across_domains;
    Alcotest.test_case "par-eager state equivalent across domains" `Slow
      test_par_eager_state_equivalent;
    Alcotest.test_case "par-eager probes find every deadlock" `Slow
      test_par_eager_probes_find_every_deadlock;
    Alcotest.test_case "par-eager stale grant released" `Slow
      test_par_eager_stale_grant_released;
    Alcotest.test_case "par-eager pinned at 64 nodes" `Slow
      test_par_eager_pinned_at_64_nodes;
    Alcotest.test_case "budget split across par-eager tasks" `Slow
      test_budget_split_equivalent;
  ]
