(* The conservative parallel engine and its determinism-equivalence
   guarantee: partition routing, window synchronization, the Domain pool,
   and — the headline — byte-identical fixed-seed runs for every
   registered scheme at --sim-domains 1, 2 and 4. *)

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

(* --- Partition router: deterministic merge and the conservative check --- *)

let test_router_merge_order () =
  let r = Partition.create ~parts:3 ~lookahead:0.5 in
  (* same time from two sources, plus two posts from one source: merge
     order is (time, src, per-source seq), nothing else *)
  Partition.post r ~src:2 ~dst:0 ~time:1.0 "c";
  Partition.post r ~src:1 ~dst:0 ~time:1.0 "b1";
  Partition.post r ~src:1 ~dst:0 ~time:1.0 "b2";
  Partition.post r ~src:0 ~dst:1 ~time:0.75 "a";
  let log = ref [] in
  Partition.drain r ~deliver:(fun p -> log := p.Partition.p_msg :: !log);
  checks "merge order" "a,b1,b2,c" (String.concat "," (List.rev !log));
  checki "delivered" 4 (Partition.delivered_total r)

let test_router_conservative_violation () =
  let r = Partition.create ~parts:2 ~lookahead:0.5 in
  Partition.advance r ~part:0 ~time:10.;
  Partition.advance r ~part:1 ~time:10.;
  Partition.post r ~src:0 ~dst:1 ~time:9. "late";
  checkb "delivery into the past rejected" true
    (match Partition.drain r ~deliver:ignore with
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
   driver event per partition at time 0. Delivery times are tie-free by
   construction, so the global delivery order the barrier produces must
   equal the sorted delivery times — the order one serial engine would
   fire them in — and no delivery may precede the receiver's completed
   horizon. *)

let router_order_prop =
  let gen =
    QCheck.list_of_size
      (QCheck.Gen.int_range 1 60)
      QCheck.(triple (int_range 0 3) (int_range 0 3) (int_range 1 999))
  in
  QCheck.Test.make ~count:100
    ~name:"par engine delivers in serial-heap order, never early" gen
    (fun ops ->
      let parts = 4 in
      let lookahead = 0.05 in
      (* unique fractional part per op index: no two delivery times tie *)
      let delay i units = lookahead +. (float_of_int units /. 1000.) +. (float_of_int i *. 1e-7) in
      let t = Par_engine.create ~parts ~lookahead () in
      let log = ref [] in
      (* the handler runs at the barrier in drain order — the parallel
         engine's global serialization of cross-partition traffic *)
      Par_engine.set_handler t (fun ~src:_ ~dst ~time () ->
          let e = Par_engine.engine t dst in
          if time < Engine.now e then
            QCheck.Test.fail_report "delivered before the receiver's clock";
          log := time :: !log;
          ignore (Engine.schedule_at e ~time ignore));
      for p = 0 to parts - 1 do
        ignore
          (Engine.schedule (Par_engine.engine t p) ~delay:0. (fun () ->
               List.iteri
                 (fun i (src, dst, units) ->
                   if src = p && src <> dst then
                     Par_engine.post t ~src ~dst ~delay:(delay i units) ())
                 ops))
      done;
      Par_engine.run t;
      let expected =
        List.sort Float.compare
          (List.concat
             (List.mapi
                (fun i (src, dst, units) ->
                  if src <> dst then [ delay i units ] else [])
                ops))
      in
      List.rev !log = expected)

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

(* --- The tentpole: every scheme, byte-identical at sim-domains 1/2/4 ---

   One observed run per (scheme, sim-domains); the comparison key is
   everything a run externalizes — summary, diagnostics, deadlock counts
   (via the export record), the metrics snapshot and the trace export —
   minus wall-clock phase profiles, which are honest nondeterminism. *)

let strip_phases snap = { snap with Obs.s_phases = [] }

let scheme_fingerprint ~sim_domains name =
  let params =
    { Params.default with db_size = 300; nodes = 3; tps = 4.; actions = 3 }
  in
  let task =
    Sweep.Scheme_task
      { scheme = name; spec = Scheme.spec params; seed = 42; warmup = 1.;
        span = 6. }
  in
  match Sweep.run_observed ~sim_domains ~trace:true [ task ] with
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
      let serial = scheme_fingerprint ~sim_domains:1 name in
      List.iter
        (fun sim_domains ->
          checks
            (Printf.sprintf "%s: sim-domains=%d byte-identical to 1" name
               sim_domains)
            serial
            (scheme_fingerprint ~sim_domains name))
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

let suite =
  [
    Alcotest.test_case "next_time skips cancelled roots" `Quick
      test_next_time_skips_cancelled;
    Alcotest.test_case "heap pop releases slot" `Quick test_pop_releases_slot;
    Alcotest.test_case "run ~until releases cancelled closures" `Quick
      test_run_until_releases_cancelled;
    Alcotest.test_case "router merge order" `Quick test_router_merge_order;
    Alcotest.test_case "router rejects past delivery" `Quick
      test_router_conservative_violation;
    Alcotest.test_case "router safe time" `Quick test_router_safe_time;
    QCheck_alcotest.to_alcotest router_order_prop;
    Alcotest.test_case "pool sizes equivalent" `Slow test_pool_sizes_equivalent;
    Alcotest.test_case "domain pool basics" `Quick test_domain_pool_basics;
    Alcotest.test_case "all schemes byte-identical at sim-domains 1/2/4" `Slow
      test_schemes_equivalent_across_domains;
    Alcotest.test_case "queue high water pinned across domains" `Slow
      test_queue_high_water_pinned_across_domains;
    Alcotest.test_case "par-eager state equivalent across domains" `Slow
      test_par_eager_state_equivalent;
  ]
