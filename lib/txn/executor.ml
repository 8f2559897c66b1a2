module Clock = Dangers_runtime.Clock
module Lock_table = Dangers_lock.Lock_table
module Mode = Dangers_lock.Mode

type t = {
  clock : Clock.t;
  locks : Lock_table.t;
  action_time : float;
  on_wait : unit -> unit;
  ids : Txn_id.Gen.t;
  backoff : unit -> float;
  on_restart : unit -> unit;
  mutable active : int;
}

type step = { resource : int; mode : Mode.t; cost : float option }

let update_step ~resource = { resource; mode = Mode.X; cost = None }
let read_step ~resource = { resource; mode = Mode.S; cost = None }

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
  mutable owner : int; (* the running attempt's id; -1 between attempts *)
  mutable remaining : step list; (* the steps left, the current one first *)
  mutable started : float;
}

(* One closure set per submission, reused by every attempt: [request] is
   also the restart the backoff schedules, [proceed] the callback a
   queued request is granted through and [worked] the action every step
   schedules. So a step allocates only the engine's event, and a restart
   nothing of the executor's own: only the engine's event and what the
   lock table records for the killed request (its waiter record, its
   blocker list and the cycle). *)
let run t ~steps ~on_commit =
  (* Trace events are allocated only when a tracer is attached; the
     untraced hot path must not build a record per lock grant. *)
  let traced = Clock.tracing t.clock in
  let sub = { owner = -1; remaining = []; started = 0. } in
  (* Start an attempt if none is running, then request the current
     step's lock, or commit when no step is left. *)
  let rec request () =
    if sub.owner < 0 then begin
      sub.owner <- Txn_id.to_int (Txn_id.Gen.next t.ids);
      sub.started <- Clock.now t.clock;
      sub.remaining <- steps ();
      t.active <- t.active + 1;
      if traced then
        Clock.trace t.clock (Dangers_sim.Trace.Txn_started { owner = sub.owner })
    end;
    match sub.remaining with
    | [] ->
        on_commit ~started:sub.started;
        Lock_table.release_all t.locks ~owner:sub.owner;
        t.active <- t.active - 1;
        if traced then
          Clock.trace t.clock
            (Dangers_sim.Trace.Txn_committed { owner = sub.owner })
    | step :: _ -> (
        match
          Lock_table.request t.locks ~owner:sub.owner ~resource:step.resource
            ~mode:step.mode ~on_grant:proceed
        with
        | Granted ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Lock_granted
                   { owner = sub.owner; resource = step.resource });
            proceed ()
        | Waiting ->
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Lock_waited
                   { owner = sub.owner; resource = step.resource });
            t.on_wait ()
        | Deadlock cycle ->
            (* The victim is the requester (equation 3): it releases
               everything and is resubmitted as a new transaction. *)
            if traced then
              Clock.trace t.clock
                (Dangers_sim.Trace.Deadlock_victim { owner = sub.owner; cycle });
            t.on_wait ();
            Lock_table.release_all t.locks ~owner:sub.owner;
            sub.owner <- -1;
            t.active <- t.active - 1;
            t.on_restart ();
            Clock.schedule_unit t.clock ~delay:(t.backoff ()) request)
  (* The current step's lock is held: occupy its action time. *)
  and proceed () =
    match sub.remaining with
    | [] -> ()
    | step :: _ ->
        let cost =
          match step.cost with None -> t.action_time | Some cost -> cost
        in
        Clock.schedule_unit t.clock ~delay:cost worked
  (* The action is done: the next step's request. *)
  and worked () =
    match sub.remaining with
    | [] -> ()
    | _ :: rest ->
        sub.remaining <- rest;
        request ()
  in
  request ()

let active t = t.active
let locks t = t.locks
let action_time t = t.action_time
