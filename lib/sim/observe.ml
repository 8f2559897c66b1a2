type context = {
  obs : Dangers_obs.Metrics.t option;
  tracer : Trace.t option;
  series : Dangers_obs.Timeseries.t option;
  domains : int;
}

let empty = { obs = None; tracer = None; series = None; domains = 1 }
let key = Domain.DLS.new_key (fun () -> empty)
let current () = Domain.DLS.get key

let with_observation ?obs ?tracer ?series f =
  let saved = current () in
  Domain.DLS.set key { obs; tracer; series; domains = saved.domains };
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let with_domains domains f =
  if domains < 1 then invalid_arg "Observe.with_domains: domains must be >= 1";
  let saved = current () in
  Domain.DLS.set key { saved with domains };
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let ambient_obs () = (current ()).obs
let ambient_tracer () = (current ()).tracer
let ambient_series () = (current ()).series
let ambient_domains () = (current ()).domains

let profiled ?obs phase f =
  let obs = match obs with Some _ -> obs | None -> ambient_obs () in
  match obs with
  | None -> f ()
  | Some registry ->
      let (), p = Dangers_obs.Profiling.timed phase f in
      Dangers_obs.Metrics.record_phase registry p
