module Clock = Dangers_runtime.Clock
module Lock_manager = Dangers_lock.Lock_manager
module Mode = Dangers_lock.Mode

type t = {
  clock : Clock.t;
  locks : Lock_manager.t;
  action_time : float;
  on_wait : unit -> unit;
  ids : Txn_id.Gen.t;
  backoff : unit -> float;
  on_restart : unit -> unit;
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

let create ?(on_wait = fun () -> ()) ?(on_restart = fun () -> ()) ~clock ~locks
    ~action_time ~ids ~backoff () =
  if action_time < 0. then invalid_arg "Executor.create: negative action time";
  { clock; locks; action_time; on_wait; ids; backoff; on_restart; active = 0 }

(* One submission's state, carried across its attempts. *)
type submission = {
  mutable owner : int;
  mutable remaining : step list; (* the steps left, the current one first *)
  mutable started : float;
}

(* One closure set per submission, reused by every attempt: [proceed] is
   also the callback a queued request is granted through, [worked] is
   the action every step schedules and [attempt] the one a restart
   schedules. So a step allocates only the engine's event, and a restart
   nothing of the executor's own: only the engine's event and what the
   lock table records for the killed request (its waiter record, its
   blocker list and the cycle). *)
let run t ~steps ~on_commit =
  (* Trace events are allocated only when a tracer is attached; the
     untraced hot path must not build a record per lock grant. *)
  let traced = Clock.tracing t.clock in
  let sub = { owner = 0; remaining = []; started = 0. } in
  let rec attempt () =
    sub.owner <- Txn_id.to_int (Txn_id.Gen.next t.ids);
    sub.started <- Clock.now t.clock;
    sub.remaining <- steps ();
    t.active <- t.active + 1;
    if traced then
      Clock.trace t.clock (Dangers_sim.Trace.Txn_started { owner = sub.owner });
    request ()
  and request () =
    match sub.remaining with
    | [] ->
        on_commit ~started:sub.started;
        Lock_manager.release_all t.locks ~owner:sub.owner;
        t.active <- t.active - 1;
        if traced then
          Clock.trace t.clock
            (Dangers_sim.Trace.Txn_committed { owner = sub.owner })
    | step :: _ -> (
        match
          Lock_manager.request t.locks ~owner:sub.owner ~resource:step.resource
            ~mode:step.mode ~on_grant:proceed
        with
        | Lock_manager.Granted ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Lock_granted
                   { owner = sub.owner; resource = step.resource });
            proceed ()
        | Lock_manager.Waiting ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Lock_waited
                   { owner = sub.owner; resource = step.resource });
            t.on_wait ()
        | Lock_manager.Deadlock cycle ->
            (* The victim is the requester (equation 3): it releases
               everything and is resubmitted as a new transaction. *)
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Deadlock_victim { owner = sub.owner; cycle });
            t.on_wait ();
            Lock_manager.release_all t.locks ~owner:sub.owner;
            t.active <- t.active - 1;
            t.on_restart ();
            Clock.schedule_unit t.clock ~delay:(t.backoff ()) attempt)
  (* The current step's lock is held: occupy its action time. *)
  and proceed () =
    match sub.remaining with
    | [] -> ()
    | step :: _ ->
        let cost =
          match step.cost with None -> t.action_time | Some cost -> cost
        in
        Clock.schedule_unit t.clock ~delay:cost worked
  (* The action is done: its work, then the next step's request. *)
  and worked () =
    match sub.remaining with
    | [] -> ()
    | step :: rest ->
        sub.remaining <- rest;
        step.work ();
        request ()
  in
  attempt ()

let active t = t.active
let locks t = t.locks
let action_time t = t.action_time
