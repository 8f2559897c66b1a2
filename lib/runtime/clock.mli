(** The clock every scheme is written against: the event engine itself.

    Schemes schedule through this name so they run unmodified on virtual
    time (the simulator) and on wall time (the live server, built by
    {!Live_clock.create}); the two differ only in the engine's time
    source. *)

include module type of struct
  include Dangers_sim.Engine
end

val sim_engine : t -> Dangers_sim.Engine.t option
(** The engine when it runs on virtual time — for callers (benchmarks
    stepping events one at a time) that need a deterministic clock. *)

val schedule_unit : t -> delay:float -> (unit -> unit) -> unit
(** [schedule] for fire-and-forget callers (the executor's per-action
    delays, the network's arrivals). *)
