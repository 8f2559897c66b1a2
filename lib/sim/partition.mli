(** Cross-partition message channels for the conservative parallel engine.

    Each partition of a {!Par_engine} run owns a private {!Engine.t}; the
    only way state crosses partitions is a timestamped message posted
    here. Posts accumulate in one outbox per [(source, destination)]
    pair. During a window, an outbox is written only by the domain
    running its source; during the delivery phase that follows, it is
    read and cleared only by the domain delivering its destination. The
    barrier between the phases is the only synchronization needed.

    Each destination is drained on its own, in ascending
    [(time, source, per-source sequence)] order. That order is a function
    of the simulation state alone — never of which OS thread ran what —
    and, since a delivery touches only its destination, it is the only
    order that matters: it fixes the sequence of events each receiving
    engine sees, which is what makes a parallel run byte-identical to the
    serial one. Destinations are independent, so they may drain in
    parallel. The price of per-pair outboxes is a scan of [parts²]
    pointers per window (4,096 reads at 64 partitions).

    The router also tracks each partition's {e completed horizon} (the
    simulated time through which it has fired every event); a receiver's
    {!safe_time} is the least sender horizon plus the lookahead, and no
    delivery may precede it — the conservative (Chandy–Misra) invariant,
    checked on every drain. *)

type 'msg post = private {
  p_time : float;  (** delivery time at the destination *)
  p_src : int;
  p_dst : int;
  p_seq : int;  (** per-source send sequence *)
  p_msg : 'msg;
}

type 'msg t

val create : parts:int -> lookahead:float -> 'msg t
(** @raise Invalid_argument unless [parts >= 1] and [lookahead] is
    positive and finite. *)

val parts : _ t -> int
val lookahead : _ t -> float

val post : 'msg t -> src:int -> dst:int -> time:float -> 'msg -> unit
(** Enqueue a delivery. May be called concurrently for distinct [src]
    (each outbox is written only by its source); the caller —
    {!Par_engine.post} — enforces the conservative contract that [time]
    lies at or beyond the current window horizon.
    @raise Invalid_argument on an out-of-range index or non-finite
    [time]. *)

val advance : _ t -> part:int -> time:float -> unit
(** Record that [part] has completed its window through [time].
    Monotonic; single-writer per partition. *)

val advance_all : _ t -> time:float -> unit
val horizon : _ t -> part:int -> float

val safe_time : _ t -> dst:int -> float
(** Earliest time at which a not-yet-posted message could still arrive at
    [dst]: the minimum over other partitions' completed horizons, plus the
    lookahead ([infinity] for a single partition). Deliveries below this
    bound are causality violations. *)

val pending : _ t -> int
(** Posts accumulated and not yet drained, over every destination. *)

val drain : 'msg t -> dst:int -> deliver:('msg post -> unit) -> unit
(** Deliver every pending post bound for [dst] in ascending
    [(time, src, seq)] order and clear [dst]'s outboxes. Call only at the
    window barrier, once the window phase has finished. Calls for
    distinct [dst] may run concurrently, provided [deliver] touches only
    state owned by its post's destination and posts nothing.
    @raise Invalid_argument on an out-of-range [dst], or if a post's time
    precedes [dst]'s completed horizon (a conservative-synchronization
    violation — a message was produced with less than the promised
    lookahead). *)

val posts_total : _ t -> int
val delivered_total : _ t -> int
