type fault_action =
  | Pass
  | Drop
  | Duplicate
  | Delay_extra of float

type faults = {
  blocked : src:int -> dst:int -> bool;
  on_transmit : src:int -> dst:int -> fault_action;
}

let no_faults =
  {
    blocked = (fun ~src:_ ~dst:_ -> false);
    on_transmit = (fun ~src:_ ~dst:_ -> Pass);
  }

type t = { name : string; clock : Clock.t }

let sim () = { name = "sim"; clock = Dangers_sim.Engine.create () }

let live_wall () = { name = "live-wall"; clock = Live_clock.create Wall }
