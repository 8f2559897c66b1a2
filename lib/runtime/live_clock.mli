(** The engine's time sources, bound to this machine.

    [Wall] anchors time 0 at [create] on the monotonic clock and lets it
    drive the {!Dangers_sim.Engine}: an event scheduled at [~delay:d]
    fires once [d] real seconds have elapsed, and an idle run sleeps with
    [Unix.sleepf]. [Virtual] is the simulator's deterministic time. *)

type mode = Virtual | Wall

val create : ?tracer:Dangers_sim.Trace.t -> mode -> Dangers_sim.Engine.t
(** Time starts at 0. *)

(** {1 Engine operations}, re-exported for callers that hold only a wall
    clock. *)

val now : Dangers_sim.Engine.t -> float

val schedule :
  Dangers_sim.Engine.t -> delay:float -> (unit -> unit) -> Dangers_sim.Engine.event_id

val run : ?max_events:int -> ?until:float -> Dangers_sim.Engine.t -> unit
