(* The event queue is the hottest loop of every simulation: an eager run at
   nodes=10 fires tens of millions of events. Nearly every one of them is
   scheduled at a handful of relative delays — the model charges each
   action a fixed Action_Time, and the default message delay is zero — so
   the engine keeps two kinds of queue side by side:

   - A few FIFO {e lanes}, each a power-of-two ring buffer bound to one
     relative delay. The clock never goes back, so events pushed at
     [now + d] for a fixed [d] arrive in (time, seq) order: a lane is
     sorted by construction, and push and pop are O(1) with no sifting.
     [schedule] uses the lane bound to its delay, else rebinds an empty
     lane to a delay that is seen to repeat, else falls back to the heap.
   - An inline binary min-heap over parallel arrays for everything else
     (distinct delays, [schedule_at]). [times] is a plain [float array]
     (unboxed floats), so the key compare is a raw float compare; sift
     up/down move a hole instead of swapping.

   In both, [seqs] breaks ties so equal-time events fire in schedule
   order. The next event is the least (time, seq) among the heap root and
   the lane heads, so fire order is exactly that of one heap over every
   event. [top] caches which source holds it and [lane_top] which lane
   leads the lanes: a push updates both with one compare each, a heap pop
   costs one compare, and only a lane pop scans the lane heads. The only
   per-event allocation is the two-field handle given back to the caller
   ([action] plus the [cancelled] flag); the time and sequence live only
   in the queue arrays, and [step]/[run] never allocate an [option].

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

(* Ring buffer of the events scheduled at one delay, oldest at [head]. *)
type lane = {
  mutable l_times : float array;
  mutable l_seqs : int array;
  mutable l_evs : event array;
  mutable head : int;
  mutable len : int;
}

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
  lanes : lane array;
  delays : float array;
      (* the delay each lane is bound to (-1 when unbound), then that of
         the latest schedule to fall back to the heap *)
  mutable top : int; (* source of the next event: a lane, [heap] or [none] *)
  mutable lane_top : int; (* the lane with the earliest head, or [none] *)
  mutable queued : int; (* heap plus lanes, cancelled events included *)
  mutable high_water : int;
  filler : event; (* occupies [evs] and lane slots not in use *)
  mutable trace : Trace.t option;
  mutable idle_waiter : (timeout:float -> unit) option;
  (* Cross-domain entry points. The flags let the single-domain hot loop
     skip the mutex when nothing external happened. *)
  mail_mutex : Mutex.t;
  mutable mailbox_rev : (unit -> unit) list;
  mail_flag : bool Atomic.t;
  stop_flag : bool Atomic.t;
}

(* Sources of the next event: lanes [0 .. lane_count - 1], then the heap. *)
let lane_count = 4
let heap = lane_count
let none = -1

(* One filler per engine, not one per module: engines may live on
   different domains, and a single shared record would be cross-domain
   mutable state. *)
let with_time time =
  let filler = { action = ignore; cancelled = true } in
  let lane _ =
    {
      l_times = Array.make 16 0.;
      l_seqs = Array.make 16 0;
      l_evs = Array.make 16 filler;
      head = 0;
      len = 0;
    }
  in
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
    lanes = Array.init lane_count lane;
    delays = Array.make (lane_count + 1) (-1.);
    top = none;
    lane_top = none;
    queued = 0;
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

(* The head of a non-empty source. Inlined, so a head time is never
   returned as a boxed float. *)
let[@inline] head_time t s =
  if s = heap then t.times.(0)
  else
    let l = t.lanes.(s) in
    l.l_times.(l.head)

let[@inline] head_seq t s =
  if s = heap then t.seqs.(0)
  else
    let l = t.lanes.(s) in
    l.l_seqs.(l.head)

let[@inline] head_event t s =
  if s = heap then t.evs.(0)
  else
    let l = t.lanes.(s) in
    l.l_evs.(l.head)

(* Whether non-empty source [a]'s head fires before source [b]'s. *)
let[@inline] before t a b =
  let ta = head_time t a and tb = head_time t b in
  ta < tb || (Float.equal ta tb && head_seq t a < head_seq t b)

(* The lane whose head fires first, by a scan of the lane heads; needed
   only when a lane's head changes by a pop. *)
let rescan_lanes t =
  let best = ref none in
  for k = 0 to lane_count - 1 do
    if t.lanes.(k).len > 0 && (!best = none || before t k !best) then best := k
  done;
  t.lane_top <- !best

(* The next event is the earlier of the heap root and the first lane. *)
let reselect t =
  let k = t.lane_top in
  t.top <- (if t.size > 0 && (k = none || before t heap k) then heap else k)

(* Bookkeeping for an event just queued at [time] in source [s]. Its seq
   is the largest yet, so it comes first only if it is strictly earlier
   than the current first: then it is its source's head, and the next
   event. *)
let[@inline] queued_in t s time =
  if s <> heap && (t.lane_top = none || time < head_time t t.lane_top) then
    t.lane_top <- s;
  if t.top = none || time < head_time t t.top then t.top <- s;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  t.queued <- t.queued + 1;
  if t.queued > t.high_water then t.high_water <- t.queued

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

let[@inline] push t time seq ev =
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
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

(* Double a full lane, unrolling the ring so the oldest event is at 0. *)
let grow_lane t l =
  let cap = Array.length l.l_evs in
  let times = Array.make (2 * cap) 0. in
  let seqs = Array.make (2 * cap) 0 in
  let evs = Array.make (2 * cap) t.filler in
  let first = cap - l.head in
  Array.blit l.l_times l.head times 0 first;
  Array.blit l.l_times 0 times first l.head;
  Array.blit l.l_seqs l.head seqs 0 first;
  Array.blit l.l_seqs 0 seqs first l.head;
  Array.blit l.l_evs l.head evs 0 first;
  Array.blit l.l_evs 0 evs first l.head;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_evs <- evs;
  l.head <- 0

(* The lane bound to [delay], else [none]. An unbound delay is admitted
   into the first empty lane only when the previous schedule that fell
   back to the heap had the same delay: a one-off delay (a random arrival
   or backoff) would otherwise hold a lane until it fires and push the
   repeated ones onto the heap. Every event in a lane shares its delay,
   so the lane stays sorted. *)
let lane_for t delay =
  let found = ref none and empty = ref none and k = ref 0 in
  while !found = none && !k < lane_count do
    if Float.equal t.delays.(!k) delay then found := !k
    else if !empty = none && t.lanes.(!k).len = 0 then empty := !k;
    incr k
  done;
  if !found = none then begin
    if !empty <> none && Float.equal t.delays.(lane_count) delay then begin
      t.delays.(!empty) <- delay;
      found := !empty
    end
    else t.delays.(lane_count) <- delay
  end;
  !found

(* Inlined, with [push], so that a time the caller computes is never
   boxed to be passed on. *)
let[@inline] push_heap t time action =
  let event = { action; cancelled = false } in
  push t time t.next_seq event;
  queued_in t heap time;
  event

let schedule_at t ~time action =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  push_heap t time action

let schedule t ~delay action =
  if not (Float.is_finite delay && delay >= 0.) then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  let k = lane_for t delay in
  if k = none then begin
    let time = t.clock +. delay in
    if not (Float.is_finite time) then
      invalid_arg "Engine.schedule_at: non-finite time";
    push_heap t time action
  end
  else begin
    let event = { action; cancelled = false } in
    let l = t.lanes.(k) in
    if l.len = Array.length l.l_evs then grow_lane t l;
    let i = (l.head + l.len) land (Array.length l.l_evs - 1) in
    let time = t.clock +. delay in
    l.l_times.(i) <- time;
    l.l_seqs.(i) <- t.next_seq;
    l.l_evs.(i) <- event;
    l.len <- l.len + 1;
    queued_in t k time;
    event
  end

(* A cancelled event may stay queued until it is the next event; drop its
   closure now so it does not pin what it captured until then. *)
let cancel t event =
  if not event.cancelled then begin
    event.cancelled <- true;
    event.action <- ignore;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Remove the next event, known to exist, and find the one after it. A
   popped lane slot is reset to the filler, as past-the-end heap slots
   are. *)
let pop t =
  let s = t.top in
  if s = heap then remove_min t
  else begin
    let l = t.lanes.(s) in
    l.l_evs.(l.head) <- t.filler;
    l.head <- (l.head + 1) land (Array.length l.l_evs - 1);
    l.len <- l.len - 1;
    rescan_lanes t
  end;
  t.queued <- t.queued - 1;
  reselect t

(* Cancelled events are popped eagerly once they are next, so the next
   event is one that will actually fire; this keeps the parallel engine's
   window bound (the global minimum of [next_time]) exact rather than
   pessimistic. Only the next event is ever removed, so the queue holds
   exactly what one heap over every event would. *)
let drop_cancelled t =
  while t.top <> none && (head_event t t.top).cancelled do
    pop t
  done

let next_time t =
  drop_cancelled t;
  if t.top = none then None else Some (head_time t t.top)

(* Fire the next event, known live. Virtual time never schedules into the
   past, so the clock only moves forward in either mode; under wall time
   it may already be past the event. *)
let fire t =
  let event = head_event t t.top and time = head_time t t.top in
  pop t;
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
  if t.top = none then false
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
      if t.top <> none && head_time t t.top <= deadline then begin
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
      if t.top <> none && head_time t t.top <= deadline then begin
        let next = head_time t t.top in
        if next <= t.clock then begin
          if !budget = 0 then raise (Runaway limit);
          decr budget;
          fire t
        end
        else
          (* Next event is in the real future: park until it is due. *)
          idle t ~sleep (next -. t.clock)
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
