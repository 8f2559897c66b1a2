(** Discrete-event engine: the one event core of the simulator and the live
    server.

    A clock and a priority queue of events. Everything in the replication
    simulator — transaction actions taking Action_Time, replica-update
    message delays, mobile disconnect/reconnect cycles, Poisson arrivals —
    is an event scheduled here. Equal-time events fire in the order they
    were scheduled. Time is in seconds.

    A time source decides how [now] advances:

    - {e virtual} time ({!create}) jumps to each event as it fires, so a
      run is a deterministic function of its schedule;
    - {e wall} time ({!create_wall}) reads an elapsed-seconds function, and
      {!run} waits for real time to reach each event. Between due events
      the run loop calls the installed {!set_idle_waiter} (a server parks
      in [select] there) or the sleep it was built with.

    The engine itself is single-domain: only the domain running {!run} may
    call [schedule]/[cancel]. Other domains end a run with {!stop}, the
    only thread-safe entry point. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

val create : unit -> t
(** A virtual-time engine. *)

val create_wall : elapsed:(unit -> float) -> sleep:(float -> unit) -> t
(** A wall-time engine. [elapsed ()] is the seconds since time 0 on a
    monotonic clock; [sleep s] parks the calling domain for [s] seconds
    when no idle waiter is installed. *)

val is_virtual : t -> bool

val now : t -> float
(** Current time; starts at 0. Virtual: the last fired event's time (or
    the last [run ~until] deadline). Wall: elapsed seconds, never behind
    the last fired event. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] fires [f] at [now t +. delay]; under wall time
    "now" is the clock as the run loop last advanced it.
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant. @raise Invalid_argument if [time] is in the
    past. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val next_time : t -> float option
(** Time of the next event that will actually fire, or [None] on an empty
    (or all-cancelled) queue. The conservative parallel engine uses the
    minimum of these across partitions as its window bound. *)

val step : t -> bool
(** Fire the next event whatever the time source says; [false] when the
    queue is empty. {!stop} is not consulted. *)

exception Runaway of int
(** Raised by {!run} when [max_events] fire without draining the queue —
    almost always a self-rescheduling loop (a connectivity schedule or
    generator left running before a drain). Failing fast beats hanging. *)

val run : ?max_events:int -> ?until:float -> t -> unit
(** Fire events until the queue drains, [until] passes, or {!stop} is
    called.

    With [~until], stops (leaving later events queued) once the next event
    lies beyond [until]; virtual time then sets the clock to [until]. With
    [~max_events], raises {!Runaway} when event [max_events + 1] of this
    call is about to fire; a queue that drains in exactly [max_events]
    events returns normally.

    Wall time waits for real time to catch up with each event; with no
    [until], an empty queue ends the run only when no idle waiter is
    installed (a server with a waiter keeps serving until {!stop}). *)

val run_for : t -> float -> unit
(** [run_for t span] = [run t ~until:(now t +. span)] (virtual time). *)

val stop : t -> unit
(** Thread-safe: make the current {!run} return after the event in
    flight. The queue is left intact. *)

val set_idle_waiter : t -> (timeout:float -> unit) option -> unit
(** Wall time only: called whenever the run loop has nothing due, with the
    number of seconds until the next event (capped; always finite and
    non-negative). A server blocks in [Unix.select] here and services
    I/O; returning early is always safe. Without a waiter the loop
    sleeps. *)

val events_fired : t -> int
(** Total events executed since creation; a cheap progress/work measure.
    Events per second of wall time — the throughput number the
    microbenchmarks report — is this divided by elapsed real time. *)

val queue_high_water : t -> int
(** Largest number of queued events (including cancelled ones not yet
    popped) ever reached; a cheap memory-pressure measure. *)

(** {1 Tracing}

    Components built over the engine (the transaction executor, the
    network) record into the attached trace, if any; no tracer, no cost. *)

val set_tracer : t -> Trace.t option -> unit
val tracer : t -> Trace.t option

val tracing : t -> bool
(** Whether a tracer is attached. Hot paths check this before building a
    {!Trace.event}, so the no-tracer case allocates nothing. *)

val trace : t -> Trace.event -> unit
(** Record at the time of the last fired event; no-op without a tracer. *)
