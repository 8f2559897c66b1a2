(** A measured window over {!Dangers_obs.Metrics} counter handles, on one
    engine's simulated clock.

    Experiments run a warmup phase and then a measured window; rates are
    events per simulated second within the window, which is what the
    paper's per-second equations predict. The window keeps a baseline per
    handle, not a second copy of every count. *)

type t
type counter = Dangers_obs.Metrics.counter

val of_engine : Engine.t -> t
(** A view whose window starts now. *)

val counter : t -> string -> counter
(** A fresh handle no registry interns, so systems sharing one registry,
    and partitions on different domains, never share a handle. *)

val incr : counter -> unit

val count : t -> counter -> int
(** Count within the current window.
    @raise Invalid_argument for a handle another view made. *)

val total : counter -> int
(** Count since creation, ignoring windows. *)

val rate : t -> counter -> float
(** [count / elapsed-window-time]; 0 when no time has elapsed. *)

val txn_duration : t -> Dangers_util.Stats.t
(** Committed user-transaction durations, seconds; not windowed. *)

val start_window : t -> unit
(** Baseline every handle at its current value and mark the current
    simulated time as the window start. Call after warmup. *)

val window_elapsed : t -> float

val export : t -> Dangers_obs.Metrics.t -> unit
(** Register one snapshot source: [engine.events_fired_total],
    [engine.queue_high_water], and [scheme.<name>_total] for every handle
    that has fired (since-creation totals). *)
