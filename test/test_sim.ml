(* Engine and Metrics tests. *)

module Engine = Dangers_sim.Engine
module Metrics = Dangers_sim.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Engine --- *)

let test_engine_ordering () =
  let engine = Engine.create () in
  let trace = ref [] in
  let record tag () = trace := tag :: !trace in
  ignore (Engine.schedule engine ~delay:2.0 (record "c"));
  ignore (Engine.schedule engine ~delay:1.0 (record "a"));
  ignore (Engine.schedule engine ~delay:1.0 (record "b"));
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.string) "time then FIFO order"
    [ "a"; "b"; "c" ] (List.rev !trace);
  checkf "clock at last event" 2.0 (Engine.now engine)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let event = Engine.schedule engine ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel engine event;
  checki "pending zero after cancel" 0 (Engine.pending engine);
  Engine.run engine;
  checkb "cancelled never fires" false !fired

let test_engine_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run engine ~until:5.5;
  checki "five fired" 5 !count;
  checkf "clock advanced to deadline" 5.5 (Engine.now engine);
  Engine.run engine;
  checki "rest fired" 10 !count

let test_engine_nested_schedule () =
  let engine = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         times := Engine.now engine :: !times;
         ignore
           (Engine.schedule engine ~delay:0.5 (fun () ->
                times := Engine.now engine :: !times))));
  Engine.run engine;
  Alcotest.check (Alcotest.list (Alcotest.float 1e-9)) "nested times"
    [ 1.0; 1.5 ] (List.rev !times)

let test_engine_past_rejected () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at engine ~time:1.0 (fun () -> ())))

let test_engine_zero_delay_cascade () =
  (* Zero-delay events must still run in schedule order without stalling. *)
  let engine = Engine.create () in
  let n = ref 0 in
  let rec chain k = if k > 0 then
    ignore (Engine.schedule engine ~delay:0. (fun () -> incr n; chain (k - 1)))
  in
  chain 100;
  Engine.run engine;
  checki "all fired" 100 !n;
  checkf "clock unmoved" 0. (Engine.now engine)

let test_engine_cancel_stops_runaway_chain () =
  (* A self-rescheduling chain is the canonical Runaway source; cancelling
     its current link must break the loop so the same budget that would
     have tripped the guard now drains cleanly. *)
  let engine = Engine.create () in
  let current = ref None in
  let links = ref 0 in
  let rec loop () =
    incr links;
    current := Some (Engine.schedule engine ~delay:0.01 loop)
  in
  loop ();
  ignore
    (Engine.schedule engine ~delay:1.005 (fun () ->
         Option.iter (Engine.cancel engine) !current));
  (* Without the cancel this loop would fire ~100_000 events and raise. *)
  Engine.run ~max_events:1000 engine;
  checki "chain stopped at the cancel point" 101 !links;
  checki "queue drained" 0 (Engine.pending engine)

let test_engine_cancelled_not_counted () =
  let engine = Engine.create () in
  let e1 = Engine.schedule engine ~delay:1. (fun () -> ()) in
  ignore (Engine.schedule engine ~delay:2. (fun () -> ()));
  ignore (Engine.schedule engine ~delay:6. (fun () -> ()));
  let before = Engine.events_fired engine in
  Engine.cancel engine e1;
  Engine.run engine ~until:3.;
  checki "cancelled event not in events_fired" 1
    (Engine.events_fired engine - before);
  checkf "until still honoured" 3. (Engine.now engine);
  checki "later event still queued" 1 (Engine.pending engine)

let test_engine_cancel_after_fire_noop () =
  let engine = Engine.create () in
  let fired = ref [] in
  let e1 = Engine.schedule engine ~delay:1. (fun () -> fired := 1 :: !fired) in
  ignore (Engine.schedule engine ~delay:2. (fun () -> fired := 2 :: !fired));
  Engine.run engine ~until:1.5;
  (* e1 has fired; cancelling its stale handle must not disturb the queue. *)
  Engine.cancel engine e1;
  Engine.cancel engine e1;
  checki "pending untouched" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "second event unaffected"
    [ 1; 2 ] (List.rev !fired)

(* --- Metrics --- *)

let test_engine_runaway_guard () =
  let engine = Engine.create () in
  (* A self-rescheduling zero-delay loop: without the guard this would hang. *)
  let rec loop () = ignore (Engine.schedule engine ~delay:0. loop) in
  loop ();
  (try
     Engine.run ~max_events:1000 engine;
     Alcotest.fail "runaway not detected"
   with Engine.Runaway n -> checki "budget reported" 1000 n);
  (* A bounded workload completes under a guard it exactly spends: the
     budget counts events that fire, not the empty check that ends the
     run. *)
  let engine2 = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 50 do
    ignore (Engine.schedule engine2 ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  Engine.run ~max_events:50 engine2;
  checki "bounded run completes" 50 !fired;
  checki "queue drained" 0 (Engine.pending engine2)

let test_metrics_counters_and_window () =
  let engine = Engine.create () in
  let metrics = Metrics.of_engine engine in
  let x = Metrics.counter metrics "x" in
  for _ = 1 to 5 do
    Metrics.incr x
  done;
  checki "window count" 5 (Metrics.count metrics x);
  ignore (Engine.schedule engine ~delay:10. (fun () -> Metrics.incr x));
  Engine.run engine;
  checki "lifetime" 6 (Metrics.total x);
  checkf "rate over 10s window" 0.6 (Metrics.rate metrics x);
  Metrics.start_window metrics;
  checki "window reset" 0 (Metrics.count metrics x);
  checkf "rate over an empty window" 0. (Metrics.rate metrics x);
  checki "lifetime preserved" 6 (Metrics.total x);
  Metrics.incr x;
  checki "window counts from the baseline" 1 (Metrics.count metrics x);
  let other = Metrics.of_engine engine in
  Alcotest.check_raises "foreign handle"
    (Invalid_argument "Metrics.count: handle belongs to another view") (fun () ->
      ignore (Metrics.count other x))

let test_metrics_samples () =
  let engine = Engine.create () in
  let metrics = Metrics.of_engine engine in
  Dangers_util.Stats.add (Metrics.txn_duration metrics) 1.0;
  Dangers_util.Stats.add (Metrics.txn_duration metrics) 3.0;
  checkf "sample mean" 2.0 (Dangers_util.Stats.mean (Metrics.txn_duration metrics));
  let nope = Metrics.counter metrics "nope" in
  checki "unfired counter" 0 (Metrics.count metrics nope);
  checki "unfired total" 0 (Metrics.total nope)

let test_engine_queue_high_water () =
  let e = Engine.create () in
  checki "empty engine high water" 0 (Engine.queue_high_water e);
  let cancelled = Engine.schedule e ~delay:3. (fun () -> ()) in
  for i = 1 to 9 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> ()))
  done;
  checki "high water tracks peak depth" 10 (Engine.queue_high_water e);
  (* cancelled events still occupy queue slots until popped *)
  Engine.cancel e cancelled;
  ignore (Engine.schedule e ~delay:10. (fun () -> ()));
  checki "cancel frees no slot" 11 (Engine.queue_high_water e);
  Engine.run e;
  checki "draining does not lower the mark" 11 (Engine.queue_high_water e)

let suite =
  [
    Alcotest.test_case "engine queue high water" `Quick
      test_engine_queue_high_water;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine nested schedule" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine rejects past" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine zero-delay cascade" `Quick test_engine_zero_delay_cascade;
    Alcotest.test_case "engine runaway guard" `Quick test_engine_runaway_guard;
    Alcotest.test_case "engine cancel stops runaway chain" `Quick
      test_engine_cancel_stops_runaway_chain;
    Alcotest.test_case "engine cancelled not counted" `Quick
      test_engine_cancelled_not_counted;
    Alcotest.test_case "engine cancel after fire no-op" `Quick
      test_engine_cancel_after_fire_noop;
    Alcotest.test_case "metrics counters and window" `Quick test_metrics_counters_and_window;
    Alcotest.test_case "metrics samples" `Quick test_metrics_samples;
  ]
