(** The execution runtime a scheme runs on: a clock plus the fault hooks
    its transport consults.

    Schemes never name the simulator directly; they take a {!t} (or just
    its {!Clock.t}) and schedule time and messages through it. The clock
    is always the one event engine; the two runtimes differ only in its
    time source:

    - the {e sim} runtime runs on virtual time, byte-identical to the
      simulator's fixed-seed outputs; and
    - the {e live} runtime runs on wall time, with {!Codec}-framed
      messages on the socket boundary.

    Both drive the same simulated {!Dangers_net.Network} transport. *)

(** {1 Transport fault hooks} *)

type fault_action =
  | Pass
  | Drop
  | Duplicate
  | Delay_extra of float

type faults = {
  blocked : src:int -> dst:int -> bool;
  on_transmit : src:int -> dst:int -> fault_action;
}

val no_faults : faults

(** {1 Runtime handles} *)

type t = { name : string; clock : Clock.t }
(** What a scheme constructor takes: the clock everything schedules on,
    tagged with the runtime's name for summaries and traces. The
    transport is not carried here because it is message-type-polymorphic;
    schemes build theirs from the clock
    (see {!Dangers_net.Network.create}). *)

val sim : unit -> t
(** A fresh virtual-time runtime. *)

val live_wall : unit -> t
(** Wall-clock runtime: delays elapse in real time. *)
