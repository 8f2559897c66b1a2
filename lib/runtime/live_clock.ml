module Engine = Dangers_sim.Engine

type mode = Virtual | Wall

let create ?tracer mode =
  let t =
    match mode with
    | Virtual -> Engine.create ()
    | Wall ->
        let origin = Monotonic_clock.now () in
        let elapsed () =
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9
        in
        Engine.create_wall ~elapsed ~sleep:Unix.sleepf
  in
  Engine.set_tracer t tracer;
  t

let now = Engine.now
let schedule = Engine.schedule
let run = Engine.run
