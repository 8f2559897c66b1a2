module Clock = Dangers_runtime.Clock
module Delay = Dangers_runtime.Delay
module Rng = Dangers_util.Rng

type 'msg parked = { p_src : int; p_dst : int; p_msg : 'msg }

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

type 'msg t = {
  clock : Clock.t;
  rng : Rng.t;
  delay : Delay.t;
  node_count : int;
  faults : faults;
  connected : bool array;
  parked : 'msg parked Queue.t array; (* indexed by the disconnected endpoint *)
  deliver : src:int -> dst:int -> 'msg -> unit;
  mutable observers : (node:int -> connected:bool -> unit) list;
  mutable sent : int;
  mutable delivered : int;
  mutable parked_count : int;
  mutable dropped : int;
  mutable duplicated : int;
  (* Pre-resolved metrics handle, [None] when no registry is attached —
     same zero-cost-when-detached shape as the engine's tracer. *)
  latency : Dangers_obs.Metrics.histogram option;
}

let create ?obs ?(faults = no_faults) ~clock ~rng ~delay ~nodes ~deliver () =
  if nodes <= 0 then invalid_arg "Network.create: nodes must be positive";
  Delay.validate delay;
  let t =
    {
      clock;
      rng;
      delay;
      node_count = nodes;
      faults;
      connected = Array.make nodes true;
      parked = Array.init nodes (fun _ -> Queue.create ());
      deliver;
      observers = [];
      sent = 0;
      delivered = 0;
      parked_count = 0;
      dropped = 0;
      duplicated = 0;
      latency =
        Option.map
          (fun registry ->
            Dangers_obs.Metrics.histogram registry "net.hop_latency_seconds")
          obs;
    }
  in
  (match obs with
  | None -> ()
  | Some registry ->
      Dangers_obs.Metrics.register_source registry (fun () ->
          [
            Dangers_obs.Metrics.Count ("net.messages_sent_total", t.sent);
            Dangers_obs.Metrics.Count
              ("net.messages_delivered_total", t.delivered);
            Dangers_obs.Metrics.Count ("net.messages_dropped_total", t.dropped);
            Dangers_obs.Metrics.Count
              ("net.messages_duplicated_total", t.duplicated);
            Dangers_obs.Metrics.Gauge
              ("net.messages_parked", float_of_int t.parked_count);
          ]));
  t

let nodes t = t.node_count

let check_node t node name =
  if node < 0 || node >= t.node_count then invalid_arg (name ^ ": node out of range")

let is_connected t ~node =
  check_node t node "Network.is_connected";
  t.connected.(node)

let park t ~at message =
  Clock.trace t.clock (Dangers_sim.Trace.Message_parked { at });
  Queue.add message t.parked.(at);
  t.parked_count <- t.parked_count + 1

(* Arrival: if the destination went down while the message was in flight, it
   parks there and is re-delivered after the reconnect flush. A partition
   that started mid-flight does not stop an arrival: the message was already
   on the wire. *)
let arrive t ({ p_src; p_dst; p_msg } as message) =
  if t.connected.(p_dst) then begin
    t.delivered <- t.delivered + 1;
    if Clock.tracing t.clock then
      Clock.trace t.clock
        (Dangers_sim.Trace.Message_delivered { src = p_src; dst = p_dst });
    t.deliver ~src:p_src ~dst:p_dst p_msg
  end
  else park t ~at:p_dst message

let schedule_arrival t message ~extra =
  let delay = Delay.sample t.delay t.rng +. extra in
  (match t.latency with
  | None -> ()
  | Some h -> Dangers_obs.Metrics.observe h delay);
  Clock.schedule_unit t.clock ~delay (fun () -> arrive t message)

(* Put a message on the wire, consulting the per-message fault hook. *)
let transmit t ({ p_src; p_dst; _ } as message) =
  match t.faults.on_transmit ~src:p_src ~dst:p_dst with
  | Pass -> schedule_arrival t message ~extra:0.
  | Drop ->
      t.dropped <- t.dropped + 1;
      Clock.trace t.clock
        (Dangers_sim.Trace.Message_dropped { src = p_src; dst = p_dst })
  | Duplicate ->
      t.duplicated <- t.duplicated + 1;
      Clock.trace t.clock
        (Dangers_sim.Trace.Message_duplicated { src = p_src; dst = p_dst });
      schedule_arrival t message ~extra:0.;
      schedule_arrival t message ~extra:0.
  | Delay_extra extra -> schedule_arrival t message ~extra:(Float.max 0. extra)

(* Decide where a message goes right now: onto the wire, or parked at a
   down or partitioned endpoint. Partition-blocked messages wait at the
   sender and are retried by [flush_node] after the partition heals. *)
let route t ({ p_src; p_dst; _ } as message) =
  if not t.connected.(p_src) then park t ~at:p_src message
  else if not t.connected.(p_dst) then park t ~at:p_dst message
  else if t.faults.blocked ~src:p_src ~dst:p_dst then park t ~at:p_src message
  else transmit t message

let send t ~src ~dst msg =
  check_node t src "Network.send";
  check_node t dst "Network.send";
  if src = dst then invalid_arg "Network.send: src = dst";
  t.sent <- t.sent + 1;
  (* Per-message records are built only when a tracer is attached. *)
  if Clock.tracing t.clock then
    Clock.trace t.clock (Dangers_sim.Trace.Message_sent { src; dst });
  route t { p_src = src; p_dst = dst; p_msg = msg }

let broadcast t ~src msg =
  for dst = 0 to t.node_count - 1 do
    if dst <> src then send t ~src ~dst msg
  done

(* Drain a node's parked queue and re-route everything; a message may park
   again immediately (other endpoint down, or still partitioned). *)
let reroute_parked t ~node =
  let queue = t.parked.(node) in
  let backlog = Queue.length queue in
  for _ = 1 to backlog do
    let message = Queue.pop queue in
    t.parked_count <- t.parked_count - 1;
    route t message
  done

let flush_node t ~node =
  check_node t node "Network.flush_node";
  if t.connected.(node) then reroute_parked t ~node

let set_connected t ~node state =
  check_node t node "Network.set_connected";
  if t.connected.(node) <> state then begin
    t.connected.(node) <- state;
    Clock.trace t.clock
      (if state then Dangers_sim.Trace.Node_connected { node }
       else Dangers_sim.Trace.Node_disconnected { node });
    if state then reroute_parked t ~node;
    List.iter (fun observer -> observer ~node ~connected:state) t.observers
  end

let on_connectivity_change t observer = t.observers <- observer :: t.observers

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_parked t = t.parked_count
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
