module Obs = Dangers_obs.Metrics
module Stats = Dangers_util.Stats

type counter = Obs.counter
type windowed = { handle : counter; mutable baseline : int }

type t = {
  engine : Engine.t;
  mutable counters : windowed list;
  mutable window_start : float;
  txn_duration : Stats.t;
}

let of_engine engine =
  {
    engine;
    counters = [];
    window_start = Engine.now engine;
    txn_duration = Stats.create ();
  }

let counter t name =
  let handle = Obs.unregistered_counter name in
  t.counters <- { handle; baseline = 0 } :: t.counters;
  handle

let incr = Obs.incr
let total = Obs.counter_value

let count t c =
  match List.find_opt (fun w -> w.handle == c) t.counters with
  | Some w -> total c - w.baseline
  | None -> invalid_arg "Metrics.count: handle belongs to another view"

let window_elapsed t = Engine.now t.engine -. t.window_start

let rate t c =
  let elapsed = window_elapsed t in
  if elapsed <= 0. then 0. else float_of_int (count t c) /. elapsed

let txn_duration t = t.txn_duration

let start_window t =
  List.iter (fun w -> w.baseline <- total w.handle) t.counters;
  t.window_start <- Engine.now t.engine

let export t registry =
  Obs.register_source registry (fun () ->
      Obs.Count ("engine.events_fired_total", Engine.events_fired t.engine)
      :: Obs.Gauge
           ("engine.queue_high_water", float_of_int (Engine.queue_high_water t.engine))
      :: List.filter_map
           (fun w ->
             let n = total w.handle in
             if n = 0 then None
             else Some (Obs.Count ("scheme." ^ Obs.counter_name w.handle ^ "_total", n)))
           t.counters)
