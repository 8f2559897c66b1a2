(** Message network with store-and-forward for disconnected nodes — the
    transport every scheme uses, on virtual and on wall time.

    Nodes are integers in [0, nodes). A message is delivered by invoking the
    network's [deliver] callback after the sampled delay — but only when both
    endpoints are connected. Messages involving a disconnected endpoint are
    parked and flushed when that node reconnects; this models the paper's
    mobile pattern of exchanging deferred replica updates at reconnect
    (§2, §4). Base nodes simply never disconnect.

    All timing goes through the runtime {!Dangers_runtime.Clock}: on
    virtual time this is the simulated network it always was, and on wall
    time the same delivery semantics play out in real elapsed time (the
    live runtime's in-process transport).

    A {!faults} hook lets a fault injector perturb delivery: drop, duplicate
    or delay individual messages, and block (partition) pairs of nodes.
    Without hooks the network is loss-free and duplicate-free. *)

type 'msg t

(** {1 Fault hooks} *)

type fault_action =
  | Pass  (** deliver normally *)
  | Drop  (** lose the message (counted and traced) *)
  | Duplicate  (** put two copies in flight, each with its own delay *)
  | Delay_extra of float  (** add this much latency (reordering) *)

type faults = {
  blocked : src:int -> dst:int -> bool;
      (** partition test, consulted at transmission time; blocked messages
          park at the sender and are retried by {!flush_node} *)
  on_transmit : src:int -> dst:int -> fault_action;
      (** per-message perturbation, consulted each time a message is put on
          the wire (including reconnect flushes) *)
}

val no_faults : faults
(** Never blocks, always [Pass] — the default. *)

val create :
  ?obs:Dangers_obs.Metrics.t ->
  ?faults:faults ->
  clock:Dangers_runtime.Clock.t ->
  rng:Dangers_util.Rng.t ->
  delay:Dangers_runtime.Delay.t ->
  nodes:int ->
  deliver:(src:int -> dst:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** All nodes start connected. @raise Invalid_argument if [nodes <= 0] or
    the delay model is invalid.

    When [obs] is given, the network registers a pull source for its
    message counters ([net.messages_*]) and observes every sampled hop
    delay into the [net.hop_latency_seconds] histogram; without it the
    send path is byte-identical to an uninstrumented network. *)

val nodes : 'msg t -> int
val is_connected : 'msg t -> node:int -> bool

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Fire-and-forget. @raise Invalid_argument on out-of-range node ids or
    [src = dst]. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** Send to every other node. *)

val set_connected : 'msg t -> node:int -> bool -> unit
(** Reconnecting flushes messages parked for and by the node, each with a
    fresh delay sample. Observers registered with [on_connectivity_change]
    run after the flush is scheduled. Setting the current state is a
    no-op. *)

val flush_node : 'msg t -> node:int -> unit
(** Re-route the node's parked messages without a connectivity change —
    called by the fault injector after a partition heals, since heals do not
    toggle [set_connected]. A no-op on a disconnected node. *)

val on_connectivity_change : 'msg t -> (node:int -> connected:bool -> unit) -> unit

(** {1 Counters} *)

val messages_sent : 'msg t -> int
val messages_delivered : 'msg t -> int
val messages_parked : 'msg t -> int
(** Currently parked (waiting for a reconnect). *)

val messages_dropped : 'msg t -> int
(** Lost to injected faults. *)

val messages_duplicated : 'msg t -> int
(** Extra copies put in flight by injected faults. *)
