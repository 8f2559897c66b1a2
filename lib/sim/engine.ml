(* The event queue is the hottest loop of every simulation: an eager run at
   nodes=10 fires tens of millions of events. The engine therefore keeps its
   own inline binary min-heap over parallel arrays instead of a generic heap
   of event records:

   - [times] is a plain [float array] (unboxed floats), so the key compare
     in sift operations is a raw float compare, not two closure calls into a
     polymorphic [cmp].
   - [seqs] breaks ties so equal-time events fire in schedule order, as
     before.
   - The only per-event allocation is the two-field handle given back to the
     caller ([action] plus the [cancelled] flag); the time and sequence live
     only in the heap arrays.
   - Sift up/down move a hole instead of swapping, and [step]/[run] never
     allocate an [option].

   The same queue serves the simulator and the live server. A time source
   decides the one thing that differs: virtual time jumps to the next
   event, wall time reads a monotonic clock and waits for an event that is
   not yet due. Both run loops also drain cross-domain posts and honour
   [stop]; the virtual loop pays two atomic flag loads per event for that
   and nothing else. *)

type event = { mutable action : unit -> unit; mutable cancelled : bool }
type event_id = event

type time =
  | Virtual
  | Wall of { elapsed : unit -> float; sleep : float -> unit }

type t = {
  time : time;
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  mutable live : int;
  (* binary min-heap over (times.(i), seqs.(i)), [size] live entries *)
  mutable times : float array;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;
  mutable high_water : int;
  filler : event; (* occupies [evs] slots past [size] *)
  mutable trace : Trace.t option;
  mutable idle_waiter : (timeout:float -> unit) option;
  (* Cross-domain entry points. The flags let the single-domain hot loop
     skip the mutex when nothing external happened. *)
  mail_mutex : Mutex.t;
  mutable mailbox_rev : (unit -> unit) list;
  mail_flag : bool Atomic.t;
  stop_flag : bool Atomic.t;
}

(* One filler per engine, not one per module: engines may live on
   different domains, and a single shared record would be cross-domain
   mutable state. *)
let with_time time =
  let filler = { action = ignore; cancelled = true } in
  {
    time;
    clock = 0.;
    next_seq = 0;
    fired = 0;
    live = 0;
    times = Array.make 16 0.;
    seqs = Array.make 16 0;
    evs = Array.make 16 filler;
    size = 0;
    high_water = 0;
    filler;
    trace = None;
    idle_waiter = None;
    mail_mutex = Mutex.create ();
    mailbox_rev = [];
    mail_flag = Atomic.make false;
    stop_flag = Atomic.make false;
  }

let create () = with_time Virtual
let create_wall ~elapsed ~sleep = with_time (Wall { elapsed; sleep })
let is_virtual t = match t.time with Virtual -> true | Wall _ -> false

let now t =
  match t.time with
  | Virtual -> t.clock
  | Wall w ->
      let elapsed = w.elapsed () in
      if elapsed > t.clock then elapsed else t.clock

let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' 0. in
  let seqs = Array.make cap' 0 in
  let evs = Array.make cap' t.filler in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.evs 0 evs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

let push t time seq ev =
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  if t.size > t.high_water then t.high_water <- t.size;
  (* bubble a hole up from the new slot, then drop the event in *)
  let i = ref (t.size - 1) in
  let placed = ref false in
  while not !placed do
    if !i = 0 then placed := true
    else begin
      let parent = (!i - 1) / 2 in
      let pt = t.times.(parent) in
      if time < pt || (Float.equal time pt && seq < t.seqs.(parent)) then begin
        t.times.(!i) <- pt;
        t.seqs.(!i) <- t.seqs.(parent);
        t.evs.(!i) <- t.evs.(parent);
        i := parent
      end
      else placed := true
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.evs.(!i) <- ev

(* Remove the root. The last entry re-enters at the root and a hole sifts
   down ahead of it; [evs] slots past [size] are reset so the engine never
   pins dead events (and their closures) against the GC. *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then t.evs.(0) <- t.filler
  else begin
    let time = t.times.(n) and seq = t.seqs.(n) and ev = t.evs.(n) in
    t.evs.(n) <- t.filler;
    let i = ref 0 in
    let placed = ref false in
    while not !placed do
      let l = (2 * !i) + 1 in
      if l >= n then placed := true
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.times.(r) < t.times.(l)
               || (Float.equal t.times.(r) t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = t.times.(c) in
        if ct < time || (Float.equal ct time && t.seqs.(c) < seq) then begin
          t.times.(!i) <- ct;
          t.seqs.(!i) <- t.seqs.(c);
          t.evs.(!i) <- t.evs.(c);
          i := c
        end
        else placed := true
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.evs.(!i) <- ev
  end

let schedule_at t ~time action =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let event = { action; cancelled = false } in
  push t time t.next_seq event;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  event

let schedule t ~delay action =
  if not (Float.is_finite delay && delay >= 0.) then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  schedule_at t ~time:(t.clock +. delay) action

(* A cancelled event may sit in the heap until it reaches the root; drop
   its closure now so it does not pin what it captured until then. *)
let cancel t event =
  if not event.cancelled then begin
    event.cancelled <- true;
    event.action <- ignore;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Cancelled roots are popped eagerly so the root is an event that will
   actually fire; this keeps the parallel engine's window bound (the global
   minimum of [next_time]) exact rather than pessimistic. *)
let drop_cancelled t =
  while t.size > 0 && t.evs.(0).cancelled do
    remove_min t
  done

let next_time t =
  drop_cancelled t;
  if t.size = 0 then None else Some t.times.(0)

(* Fire the root, known live. Virtual time never schedules into the past,
   so the clock only moves forward in either mode; under wall time it may
   already be past the event. *)
let fire t =
  let event = t.evs.(0) and time = t.times.(0) in
  remove_min t;
  (* Mark fired events as no longer live so a later [cancel] (e.g. a
     schedule stopped from inside its own callback) stays a no-op instead
     of corrupting the live count. *)
  event.cancelled <- true;
  t.live <- t.live - 1;
  if time > t.clock then t.clock <- time;
  t.fired <- t.fired + 1;
  event.action ()

let step t =
  drop_cancelled t;
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

let post t thunk =
  Mutex.lock t.mail_mutex;
  t.mailbox_rev <- thunk :: t.mailbox_rev;
  Atomic.set t.mail_flag true;
  Mutex.unlock t.mail_mutex

let drain_posts t =
  Mutex.lock t.mail_mutex;
  let posted = List.rev t.mailbox_rev in
  t.mailbox_rev <- [];
  Atomic.set t.mail_flag false;
  Mutex.unlock t.mail_mutex;
  List.iter (fun thunk -> thunk ()) posted

let set_idle_waiter t waiter = t.idle_waiter <- waiter
let stop t = Atomic.set t.stop_flag true

exception Runaway of int

(* The longest single park between checks of the stop flag and mailbox;
   select-based waiters return early on I/O anyway. *)
let max_idle = 0.05

let idle t ~sleep span =
  let timeout = Float.min (Float.max span 0.) max_idle in
  match t.idle_waiter with
  | Some waiter -> waiter ~timeout
  | None -> if timeout > 0. then sleep timeout

(* The budget is spent only on events that fire, so a queue that drains in
   exactly [limit] events ends cleanly. *)
let run_virtual t ~limit ~deadline =
  let budget = ref limit in
  let continue = ref true in
  while !continue do
    if Atomic.get t.stop_flag then continue := false
    else begin
      if Atomic.get t.mail_flag then drain_posts t;
      drop_cancelled t;
      if t.size > 0 && t.times.(0) <= deadline then begin
        if !budget = 0 then raise (Runaway limit);
        decr budget;
        fire t
      end
      else if not (Atomic.get t.mail_flag) then continue := false
    end
  done

let run_wall t ~elapsed ~sleep ~limit ~deadline =
  let budget = ref limit in
  let continue = ref true in
  while !continue do
    if Atomic.get t.stop_flag then continue := false
    else begin
      if Atomic.get t.mail_flag then drain_posts t;
      let now = elapsed () in
      if now > t.clock then t.clock <- now;
      drop_cancelled t;
      if t.size > 0 && t.times.(0) <= deadline then begin
        if t.times.(0) <= t.clock then begin
          if !budget = 0 then raise (Runaway limit);
          decr budget;
          fire t
        end
        else
          (* Next event is in the real future: park until it is due. *)
          idle t ~sleep (t.times.(0) -. t.clock)
      end
      else if t.clock >= deadline then continue := false
      else if Float.is_finite deadline then idle t ~sleep (deadline -. t.clock)
      else begin
        match t.idle_waiter with
        | None when not (Atomic.get t.mail_flag) ->
            (* Queue drained, nothing can wake us: the run is over. *)
            continue := false
        | None | Some _ -> idle t ~sleep max_idle
      end
    end
  done

let run ?max_events ?until t =
  Atomic.set t.stop_flag false;
  let limit = match max_events with Some n -> n | None -> max_int in
  let deadline = match until with Some d -> d | None -> infinity in
  match t.time with
  | Virtual -> (
      run_virtual t ~limit ~deadline;
      (* [run ~until] leaves the clock at the deadline unless stopped. *)
      match until with
      | Some d when d > t.clock && not (Atomic.get t.stop_flag) -> t.clock <- d
      | Some _ | None -> ())
  | Wall { elapsed; sleep } -> run_wall t ~elapsed ~sleep ~limit ~deadline

let run_for t span =
  if not (Float.is_finite span && span >= 0.) then
    invalid_arg "Engine.run_for: span must be finite and non-negative";
  run t ~until:(t.clock +. span)

let events_fired t = t.fired
let queue_high_water t = t.high_water

let set_tracer t tracer = t.trace <- tracer
let tracer t = t.trace
let tracing t = match t.trace with Some _ -> true | None -> false

let trace t event =
  match t.trace with
  | Some tr -> Trace.record tr ~now:t.clock event
  | None -> ()
