(** Mobile connectivity schedules.

    Table 2 models a mobile node by two parameters: the mean time between
    network disconnects (Time_Between_Disconnects) and the mean time a node
    stays disconnected (Disconnected_time). A schedule alternates
    connected / disconnected phases on the simulation clock and drives a
    {!Network.t} (or any callback) accordingly.

    Phase lengths are either exactly the mean ([Fixed], the paper's
    day-cycle story: "accepts and applies transactions for a day, then at
    night it connects") or exponentially distributed ([Exponential]). *)

type distribution = Fixed | Exponential

type spec = {
  time_between_disconnects : float;  (** mean connected-phase length, s *)
  disconnected_time : float;  (** mean disconnected-phase length, s *)
  distribution : distribution;
  start_connected : bool;
}

val always_connected : spec -> bool
(** True for the degenerate spec used by base nodes. *)

val base_node : spec
(** Never disconnects. *)

val day_cycle : connected:float -> disconnected:float -> spec
(** Fixed alternation, starting connected.
    @raise Invalid_argument on non-positive phase lengths. *)

val validate : spec -> unit
(** @raise Invalid_argument unless [time_between_disconnects > 0] and
    [disconnected_time >= 0]. *)

type t

val install :
  clock:Dangers_runtime.Clock.t ->
  rng:Dangers_util.Rng.t ->
  spec:spec ->
  set_connected:(bool -> unit) ->
  t
(** Start driving [set_connected] on the schedule. The initial state is
    applied immediately (time 0 of the schedule); subsequent toggles are
    clock events. @raise Invalid_argument as {!validate}. *)

val stop : t -> unit
(** Cancel future toggles; the current state persists. *)

val toggles : t -> int
(** Connectivity changes applied so far (excluding the initial state). *)

(** {1 Mobile fleets} *)

type fleet
(** One schedule per mobile node, with staggered start phases. *)

val fleet :
  clock:Dangers_runtime.Clock.t ->
  rng:Dangers_util.Rng.t ->
  spec:spec ->
  nodes:int list ->
  set_connected:(node:int -> bool -> unit) ->
  fleet
(** Drive every node in [nodes] on [spec], each starting at an offset
    drawn uniformly from one cycle ([time_between_disconnects +
    disconnected_time]) so the fleet does not disconnect in lockstep. A
    node's schedule is {!install}ed when its offset fires; until then its
    connectivity is left alone. Splits one stagger stream from [rng] at
    once and draws every offset from it in [nodes] order.
    @raise Invalid_argument as {!validate}, before anything is scheduled. *)

val stop_fleet : fleet -> unit
(** Cancel the installs still waiting on their offset and {!stop} every
    running schedule; each node's current state persists. Idempotent. *)
