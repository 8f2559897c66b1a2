include Dangers_sim.Engine

let sim_engine t = if is_virtual t then Some t else None
let schedule_unit t ~delay action = ignore (schedule t ~delay action : event_id)
