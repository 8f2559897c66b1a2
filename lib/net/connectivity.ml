module Clock = Dangers_runtime.Clock
module Rng = Dangers_util.Rng

type distribution = Fixed | Exponential

type spec = {
  time_between_disconnects : float;
  disconnected_time : float;
  distribution : distribution;
  start_connected : bool;
}

let always_connected spec =
  Float.equal spec.time_between_disconnects infinity && spec.start_connected

let base_node =
  {
    time_between_disconnects = infinity;
    disconnected_time = 0.;
    distribution = Fixed;
    start_connected = true;
  }

let day_cycle ~connected ~disconnected =
  if connected <= 0. || disconnected <= 0. then
    invalid_arg "Connectivity.day_cycle: phase lengths must be positive";
  {
    time_between_disconnects = connected;
    disconnected_time = disconnected;
    distribution = Fixed;
    start_connected = true;
  }

type t = {
  clock : Clock.t;
  rng : Rng.t;
  spec : spec;
  set_connected : bool -> unit;
  mutable next_event : Clock.event_id option;
  mutable toggle_count : int;
  mutable stopped : bool;
}

let phase_length t ~connected =
  let mean =
    if connected then t.spec.time_between_disconnects else t.spec.disconnected_time
  in
  match t.spec.distribution with
  | Fixed -> mean
  | Exponential -> Rng.exponential t.rng ~mean

let rec arm t ~connected =
  if not t.stopped then begin
    let span = phase_length t ~connected in
    if Float.is_finite span then
      t.next_event <-
        Some
          (Clock.schedule t.clock ~delay:span (fun () ->
               (* [stop] cancels this event, but guard anyway: a stop racing
                  an in-flight toggle (e.g. issued from another event at the
                  same timestamp) must never fire a late [set_connected]. *)
               if not t.stopped then begin
                 let connected' = not connected in
                 t.toggle_count <- t.toggle_count + 1;
                 t.set_connected connected';
                 arm t ~connected:connected'
               end))
    else t.next_event <- None
  end

let validate spec =
  if spec.time_between_disconnects <= 0. then
    invalid_arg "Connectivity: time_between_disconnects must be positive";
  if spec.disconnected_time < 0. then
    invalid_arg "Connectivity: disconnected_time must be >= 0"

let install ~clock ~rng ~spec ~set_connected =
  validate spec;
  let t =
    {
      clock;
      rng;
      spec;
      set_connected;
      next_event = None;
      toggle_count = 0;
      stopped = false;
    }
  in
  set_connected spec.start_connected;
  arm t ~connected:spec.start_connected;
  t

let stop t =
  t.stopped <- true;
  match t.next_event with
  | Some event ->
      Clock.cancel t.clock event;
      t.next_event <- None
  | None -> ()

let toggles t = t.toggle_count

type fleet = {
  fleet_clock : Clock.t;
  mutable installs : Clock.event_id list;
  mutable schedules : t list;
}

let fleet ~clock ~rng ~spec ~nodes ~set_connected =
  validate spec;
  (* Stagger the phases so the fleet does not disconnect in lockstep: every
     offset is drawn now, in [nodes] order; each schedule splits its own
     stream from the stagger stream when its offset fires. *)
  let cycle = spec.time_between_disconnects +. spec.disconnected_time in
  let stagger = Rng.split rng in
  let f = { fleet_clock = clock; installs = []; schedules = [] } in
  List.iter
    (fun node ->
      let offset = Rng.float stagger cycle in
      let pending =
        Clock.schedule clock ~delay:offset (fun () ->
            let schedule =
              install ~clock ~rng:(Rng.split stagger) ~spec
                ~set_connected:(set_connected ~node)
            in
            f.schedules <- schedule :: f.schedules)
      in
      f.installs <- pending :: f.installs)
    nodes;
  f

let stop_fleet f =
  (* Installs still waiting on their offset must not resurrect toggles
     after the stop; cancelling one that already fired is a no-op. *)
  List.iter (Clock.cancel f.fleet_clock) f.installs;
  f.installs <- [];
  List.iter stop f.schedules;
  f.schedules <- []
