(** Conservative (Chandy–Misra-style) parallel discrete-event simulation.

    The serial {!Engine} is one heap and one clock. This engine is [parts]
    of them — one private engine per logical partition — advanced in
    lockstep {e windows}: every partition may safely fire all events
    strictly below [W + L], where [W] is the global minimum next-event
    time and [L] the {e lookahead}, because any message a partition sends
    carries at least [L] of transmission delay and therefore lands at or
    beyond the window bound. Each window has two phases, each ended by a
    barrier: the {e window phase} fires every partition's events below
    the bound, then the {e delivery phase} drains each partition's
    inbound cross-partition messages from the {!Partition} router into
    its engine, in ascending [(time, source, sequence)] order. Both phases
    run one task per partition on the pool.

    {b Determinism.} Partitions are a property of the model, not of the
    hardware: a run with [parts] partitions produces the same per-engine
    event sequences, clocks, and counters whether the windows execute on
    one domain or eight, because the pool only chooses {e which domain}
    runs a partition's window or delivery, never the window decomposition
    or the order in which a partition receives its messages. Fixed-seed
    runs are byte-identical at any {!Dangers_util.Domain_pool} size.

    {b Stalls and null advancement.} A partition with no event inside the
    current window still participates in the barrier — the moral
    equivalent of a Chandy–Misra null message; the engine counts one
    lookahead stall (and one null advancement) per idle partition per
    window, observable through the registry passed to {!create}. *)

type 'msg t

type 'msg handler = src:int -> dst:int -> time:float -> 'msg -> unit

val create :
  ?obs:Dangers_obs.Metrics.t ->
  parts:int ->
  lookahead:float ->
  unit ->
  'msg t
(** [parts] private engines with a shared router. With [?obs], registers a
    pull source reporting the [parsim.*] counters below.
    @raise Invalid_argument unless [parts >= 1] and [lookahead] is
    positive and finite. *)

val parts : _ t -> int
val lookahead : _ t -> float

val engine : _ t -> int -> Engine.t
(** The partition's private engine: schedule partition-local events
    directly on it. @raise Invalid_argument on an out-of-range index. *)

val set_handler : 'msg t -> 'msg handler -> unit
(** How a drained cross-partition message enters its destination: called
    in the delivery phase, on whichever domain is delivering [dst], once
    per message bound for [dst] in ascending [(time, src, seq)] order.
    Handlers for distinct destinations may run at the same time, so a
    handler must touch only [dst]-partition state and must not {!post};
    it almost always [Engine.schedule_at (engine t dst) ~time] an event
    that interprets the message. Must be set before the first {!run}. *)

val post : 'msg t -> src:int -> dst:int -> delay:float -> 'msg -> unit
(** Send a message from [src]'s current simulated time. [delay] is the
    transmission delay and must be at least the lookahead — that is the
    conservative contract that makes the window bound safe.
    @raise Invalid_argument if [delay < lookahead] (or indices are out of
    range). *)

val safe_time : _ t -> dst:int -> float
(** See {!Partition.safe_time}. *)

val now : _ t -> float
(** Global minimum of the partition clocks. *)

val run :
  ?pool:Dangers_util.Domain_pool.t ->
  ?max_events:int ->
  ?until:float ->
  'msg t ->
  unit
(** Advance in windows until no partition has a pending event (or none at
    or below [until]; the partition clocks are then set to [until],
    mirroring {!Engine.run}). Window and delivery phases execute on
    [pool] when given — sized independently of [parts]; extra workers
    idle, extra partitions queue — and inline otherwise. Posts made
    outside a run are delivered on entry. [max_events] bounds the events fired in
    this call, checked at each barrier: {!Engine.Runaway} is raised once
    the total exceeds it (a window may overshoot by its batch, unlike the
    serial engine's exact cut).
    @raise Invalid_argument if no handler was set. *)

val events_fired : _ t -> int
(** Sum over partitions. *)

(** {1 Synchronization counters}

    Exported to a registry as [parsim.windows_total],
    [parsim.lookahead_stalls_total], [parsim.null_messages_total],
    [parsim.channel_posts_total], [parsim.channel_delivered_total] and the
    gauge [parsim.partitions]. *)

val windows : _ t -> int
val stalls : _ t -> int
val null_messages : _ t -> int
val posts_total : _ t -> int
val delivered_total : _ t -> int
