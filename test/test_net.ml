(* Delay, Network, Connectivity tests. *)

module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Connectivity = Dangers_net.Connectivity
module Engine = Dangers_sim.Engine
module Rng = Dangers_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_delay_models () =
  let rng = Rng.create ~seed:1 in
  checkf "zero" 0. (Delay.sample Delay.Zero rng);
  checkf "constant" 0.5 (Delay.sample (Delay.Constant 0.5) rng);
  for _ = 1 to 100 do
    let d = Delay.sample (Delay.Uniform { lo = 1.; hi = 2. }) rng in
    checkb "uniform in range" true (d >= 1. && d < 2.);
    checkb "exponential non-negative" true
      (Delay.sample (Delay.Exponential { mean = 0.3 }) rng >= 0.)
  done;
  Alcotest.check_raises "negative constant"
    (Invalid_argument "Delay.Constant: negative delay") (fun () ->
      Delay.validate (Delay.Constant (-1.)))

let make_network ?(delay = Delay.Zero) ~nodes () =
  let engine = Engine.create () in
  let received = ref [] in
  let network =
    Network.create ~clock:engine ~rng:(Rng.create ~seed:9) ~delay ~nodes
      ~deliver:(fun ~src ~dst msg -> received := (src, dst, msg) :: !received)
      ()
  in
  (engine, network, received)

let test_send_and_broadcast () =
  let engine, network, received = make_network ~nodes:3 () in
  Network.send network ~src:0 ~dst:2 "hello";
  Network.broadcast network ~src:1 "all";
  Engine.run engine;
  checki "three deliveries" 3 (List.length !received);
  checkb "direct message arrived" true (List.mem (0, 2, "hello") !received);
  checkb "broadcast to 0" true (List.mem (1, 0, "all") !received);
  checkb "broadcast to 2" true (List.mem (1, 2, "all") !received);
  checki "sent counter" 3 (Network.messages_sent network);
  checki "delivered counter" 3 (Network.messages_delivered network)

let test_send_validation () =
  let _, network, _ = make_network ~nodes:2 () in
  Alcotest.check_raises "self send" (Invalid_argument "Network.send: src = dst")
    (fun () -> Network.send network ~src:0 ~dst:0 "x")

let test_constant_delay_timing () =
  let engine, network, received = make_network ~delay:(Delay.Constant 2.0) ~nodes:2 () in
  let arrival = ref nan in
  Network.send network ~src:0 ~dst:1 "m";
  ignore received;
  (* Watch the clock at delivery via a fresh network with a closure. *)
  let network2 =
    Network.create ~clock:engine ~rng:(Rng.create ~seed:1) ~delay:(Delay.Constant 2.0)
      ~nodes:2
      ~deliver:(fun ~src:_ ~dst:_ _ -> arrival := Engine.now engine)
      ()
  in
  Network.send network2 ~src:0 ~dst:1 "m2";
  Engine.run engine;
  checkf "delivered after the delay" 2.0 !arrival

let test_store_and_forward () =
  let engine, network, received = make_network ~nodes:2 () in
  Network.set_connected network ~node:1 false;
  Network.send network ~src:0 ~dst:1 "parked";
  Engine.run engine;
  checki "nothing delivered while down" 0 (List.length !received);
  checki "one parked" 1 (Network.messages_parked network);
  Network.set_connected network ~node:1 true;
  Engine.run engine;
  checki "flushed at reconnect" 1 (List.length !received);
  checki "no parked left" 0 (Network.messages_parked network)

let test_sender_down_parks () =
  let engine, network, received = make_network ~nodes:2 () in
  Network.set_connected network ~node:0 false;
  Network.send network ~src:0 ~dst:1 "deferred";
  Engine.run engine;
  checki "held at sender" 0 (List.length !received);
  Network.set_connected network ~node:0 true;
  Engine.run engine;
  checki "sent on reconnect" 1 (List.length !received)

let test_connectivity_observer () =
  let engine, network, _ = make_network ~nodes:2 () in
  let events = ref [] in
  Network.on_connectivity_change network (fun ~node ~connected ->
      events := (node, connected) :: !events);
  Network.set_connected network ~node:1 false;
  Network.set_connected network ~node:1 false;
  (* no-op *)
  Network.set_connected network ~node:1 true;
  ignore engine;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "observer saw both changes"
    [ (1, false); (1, true) ]
    (List.rev !events)

let test_day_cycle_schedule () =
  let engine = Engine.create () in
  let trace = ref [] in
  let spec = Connectivity.day_cycle ~connected:10. ~disconnected:5. in
  let schedule =
    Connectivity.install ~clock:engine ~rng:(Rng.create ~seed:3) ~spec
      ~set_connected:(fun state -> trace := (Engine.now engine, state) :: !trace)
  in
  Engine.run engine ~until:31.;
  Connectivity.stop schedule;
  (* t=0 connected, t=10 down, t=15 up, t=25 down, t=30 up. *)
  Alcotest.check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.bool))
    "fixed alternation"
    [ (0., true); (10., false); (15., true); (25., false); (30., true) ]
    (List.rev !trace);
  checki "toggles" 4 (Connectivity.toggles schedule)

let test_base_node_never_disconnects () =
  let engine = Engine.create () in
  let changes = ref 0 in
  let _schedule =
    Connectivity.install ~clock:engine ~rng:(Rng.create ~seed:4)
      ~spec:Connectivity.base_node
      ~set_connected:(fun _ -> incr changes)
  in
  Engine.run engine ~until:1000.;
  checki "initial set only" 1 !changes;
  checkb "spec recognized" true (Connectivity.always_connected Connectivity.base_node)

let test_stop_cancels_inflight_toggle () =
  let engine = Engine.create () in
  let trace = ref [] in
  let spec = Connectivity.day_cycle ~connected:10. ~disconnected:5. in
  let schedule =
    Connectivity.install ~clock:engine ~rng:(Rng.create ~seed:3) ~spec
      ~set_connected:(fun state -> trace := (Engine.now engine, state) :: !trace)
  in
  (* Run past the first toggle; the next one (t=15) is already armed on the
     heap when we stop. It must never fire — neither the scheduled event
     nor any toggle it would have re-armed. *)
  Engine.run engine ~until:12.;
  Connectivity.stop schedule;
  let frozen = !trace in
  Engine.run engine;
  Alcotest.check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.bool))
    "no late toggle after stop" frozen !trace;
  checki "toggle count frozen" 1 (Connectivity.toggles schedule);
  (* Stopping twice stays quiet. *)
  Connectivity.stop schedule;
  Engine.run engine ~until:100.;
  checki "still frozen" 1 (Connectivity.toggles schedule)

let test_fleet_stop_before_offsets () =
  let engine = Engine.create () in
  let calls = ref 0 in
  let fleet =
    Connectivity.fleet ~clock:engine ~rng:(Rng.create ~seed:5)
      ~spec:(Connectivity.day_cycle ~connected:10. ~disconnected:5.)
      ~nodes:[ 0; 1; 2 ]
      ~set_connected:(fun ~node:_ _ -> incr calls)
  in
  checki "one install per node queued" 3 (Engine.pending engine);
  Connectivity.stop_fleet fleet;
  checki "no live event after stop" 0 (Engine.pending engine);
  Engine.run engine;
  checki "no set_connected call" 0 !calls;
  Connectivity.stop_fleet fleet;
  checki "stop is idempotent" 0 (Engine.pending engine)

let test_fleet_staggers_and_stops () =
  let engine = Engine.create () in
  let first = Hashtbl.create 4 in
  let fleet =
    Connectivity.fleet ~clock:engine ~rng:(Rng.create ~seed:6)
      ~spec:(Connectivity.day_cycle ~connected:10. ~disconnected:5.)
      ~nodes:[ 3; 1 ]
      ~set_connected:(fun ~node state ->
        if not (Hashtbl.mem first node) then
          Hashtbl.replace first node (Engine.now engine, state))
  in
  Engine.run engine ~until:15.;
  List.iter
    (fun node ->
      match Hashtbl.find_opt first node with
      | Some (at, state) ->
          checkb "starts connected" true state;
          checkb "offset within one cycle" true (at >= 0. && at < 15.)
      | None -> Alcotest.failf "node %d never installed" node)
    [ 3; 1 ];
  checki "only the fleet's nodes" 2 (Hashtbl.length first);
  Connectivity.stop_fleet fleet;
  checki "no live event after stop" 0 (Engine.pending engine)

let test_fleet_validates_at_create () =
  let engine = Engine.create () in
  let spec =
    { (Connectivity.day_cycle ~connected:1. ~disconnected:1.) with
      Connectivity.time_between_disconnects = 0. }
  in
  checkb "invalid spec rejected" true
    (match
       Connectivity.fleet ~clock:engine ~rng:(Rng.create ~seed:7) ~spec
         ~nodes:[ 0 ]
         ~set_connected:(fun ~node:_ _ -> ())
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checki "nothing scheduled" 0 (Engine.pending engine)

let faulty_network ~faults ~nodes () =
  let engine = Engine.create () in
  let received = ref [] in
  let network =
    Network.create ~faults ~clock:engine ~rng:(Rng.create ~seed:9)
      ~delay:Delay.Zero ~nodes
      ~deliver:(fun ~src ~dst msg ->
        received := (src, dst, msg, Engine.now engine) :: !received)
      ()
  in
  (engine, network, received)

let test_fault_hook_drop_and_duplicate () =
  (* Drop every 0->1 message, duplicate every 1->0 message. *)
  let faults =
    {
      Network.no_faults with
      on_transmit =
        (fun ~src ~dst:_ -> if src = 0 then Network.Drop else Network.Duplicate);
    }
  in
  let engine, network, received = faulty_network ~faults ~nodes:2 () in
  Network.send network ~src:0 ~dst:1 "lost";
  Network.send network ~src:1 ~dst:0 "twice";
  Engine.run engine;
  checki "only the duplicated message arrives" 2 (List.length !received);
  checkb "dropped one never lands" false
    (List.exists (fun (_, _, m, _) -> m = "lost") !received);
  checki "drop counted" 1 (Network.messages_dropped network);
  checki "duplicate counted" 1 (Network.messages_duplicated network);
  checki "delivered counts both copies" 2 (Network.messages_delivered network)

let test_fault_hook_extra_delay () =
  let faults =
    {
      Network.no_faults with
      on_transmit = (fun ~src:_ ~dst:_ -> Network.Delay_extra 3.);
    }
  in
  let engine, network, received = faulty_network ~faults ~nodes:2 () in
  Network.send network ~src:0 ~dst:1 "late";
  Engine.run engine;
  match !received with
  | [ (_, _, _, at) ] -> checkf "extra latency applied" 3. at
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l)

let test_fault_hook_blocked_parks_until_flush () =
  let cut = ref true in
  let faults =
    { Network.no_faults with blocked = (fun ~src:_ ~dst:_ -> !cut) }
  in
  let engine, network, received = faulty_network ~faults ~nodes:2 () in
  Network.send network ~src:0 ~dst:1 "held";
  Engine.run engine;
  checki "blocked message parks at the sender" 1
    (Network.messages_parked network);
  checki "nothing delivered" 0 (List.length !received);
  (* Heal without any connectivity change: only flush_node reroutes. *)
  cut := false;
  Network.flush_node network ~node:0;
  Engine.run engine;
  checki "flush delivers it" 1 (List.length !received);
  checki "park emptied" 0 (Network.messages_parked network)

let suite =
  [
    Alcotest.test_case "delay models" `Quick test_delay_models;
    Alcotest.test_case "send and broadcast" `Quick test_send_and_broadcast;
    Alcotest.test_case "send validation" `Quick test_send_validation;
    Alcotest.test_case "constant delay timing" `Quick test_constant_delay_timing;
    Alcotest.test_case "store and forward" `Quick test_store_and_forward;
    Alcotest.test_case "sender down parks" `Quick test_sender_down_parks;
    Alcotest.test_case "connectivity observer" `Quick test_connectivity_observer;
    Alcotest.test_case "day cycle schedule" `Quick test_day_cycle_schedule;
    Alcotest.test_case "base node never disconnects" `Quick test_base_node_never_disconnects;
    Alcotest.test_case "stop cancels in-flight toggle" `Quick
      test_stop_cancels_inflight_toggle;
    Alcotest.test_case "fleet stopped before offsets" `Quick
      test_fleet_stop_before_offsets;
    Alcotest.test_case "fleet staggers and stops" `Quick
      test_fleet_staggers_and_stops;
    Alcotest.test_case "fleet validates at create" `Quick
      test_fleet_validates_at_create;
    Alcotest.test_case "fault hook drop and duplicate" `Quick
      test_fault_hook_drop_and_duplicate;
    Alcotest.test_case "fault hook extra delay" `Quick
      test_fault_hook_extra_delay;
    Alcotest.test_case "fault hook blocked parks" `Quick
      test_fault_hook_blocked_parks_until_flush;
  ]
