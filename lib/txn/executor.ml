module Clock = Dangers_runtime.Clock
module Lock_manager = Dangers_lock.Lock_manager
module Mode = Dangers_lock.Mode

type t = {
  clock : Clock.t;
  locks : Lock_manager.t;
  action_time : float;
  on_wait : unit -> unit;
  mutable active : int;
}

type step = { resource : int; mode : Mode.t; cost : float option; work : unit -> unit }

let update_step ~resource = { resource; mode = Mode.X; cost = None; work = Fun.id }
let read_step ~resource = { resource; mode = Mode.S; cost = None; work = Fun.id }

let steps_of_ops ops =
  List.map
    (fun op ->
      let resource = Dangers_storage.Oid.to_int (Op.oid op) in
      if Op.is_update op then update_step ~resource else read_step ~resource)
    ops

let create ?(on_wait = fun () -> ()) ~clock ~locks ~action_time () =
  if action_time < 0. then invalid_arg "Executor.create: negative action time";
  { clock; locks; action_time; on_wait; active = 0 }

(* One closure set per transaction: [proceed] is also the callback a
   queued request is granted through, and [worked] is the action every
   step schedules, so a step allocates only the engine's event. The
   steps left, the current one first, live in [remaining]. *)
let run t ~owner ~steps ~on_commit ~on_deadlock =
  let owner_id = Txn_id.to_int owner in
  (* Trace events are allocated only when a tracer is attached; the
     untraced hot path must not build a record per lock grant. *)
  let traced = Clock.tracing t.clock in
  t.active <- t.active + 1;
  if traced then
    Clock.trace t.clock (Dangers_sim.Trace.Txn_started { owner = owner_id });
  let remaining = ref steps in
  let rec request () =
    match !remaining with
    | [] ->
        on_commit ();
        Lock_manager.release_all t.locks ~owner:owner_id;
        t.active <- t.active - 1;
        if traced then
          Clock.trace t.clock
            (Dangers_sim.Trace.Txn_committed { owner = owner_id })
    | step :: _ -> (
        match
          Lock_manager.request t.locks ~owner:owner_id ~resource:step.resource
            ~mode:step.mode ~on_grant:proceed
        with
        | Lock_manager.Granted ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Lock_granted
                   { owner = owner_id; resource = step.resource });
            proceed ()
        | Lock_manager.Waiting ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Lock_waited
                   { owner = owner_id; resource = step.resource });
            t.on_wait ()
        | Lock_manager.Deadlock cycle ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Deadlock_victim { owner = owner_id; cycle });
            t.on_wait ();
            Lock_manager.release_all t.locks ~owner:owner_id;
            t.active <- t.active - 1;
            on_deadlock ~cycle)
  (* The current step's lock is held: occupy its action time. *)
  and proceed () =
    match !remaining with
    | [] -> ()
    | step :: _ ->
        let cost =
          match step.cost with None -> t.action_time | Some cost -> cost
        in
        Clock.schedule_unit t.clock ~delay:cost worked
  (* The action is done: its work, then the next step's request. *)
  and worked () =
    match !remaining with
    | [] -> ()
    | step :: rest ->
        remaining := rest;
        step.work ();
        request ()
  in
  request ()

let active t = t.active
let locks t = t.locks
let action_time t = t.action_time
