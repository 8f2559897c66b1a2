(* Array-backed lock table.

   This is the hottest structure in every simulator leg: the paper predicts
   waits and deadlocks growing as the cube of the node count, so a nodes=10
   eager run performs millions of acquire / blockers / release operations.
   The representation is chosen for that load:

   - Granted owners live in a compact array, unordered; removal swaps the
     last entry in. All the consumers ([blockers], [admits], upgrades)
     are order-insensitive. A lock keeps one grant mode, not one per
     grant: a granted set is always all-S or a single X, because X is
     granted only into an empty set and an upgrade only to a sole holder.
     The array starts at capacity 1, since nearly every granted set is
     one X.
   - The FIFO wait queue is a power-of-two ring buffer: O(1) append at the
     tail, O(1) upgrade push at the front, O(1) pop, cache-friendly scans.
   - Each live owner has one record: the locks it holds, the lock it waits
     on with a memoized blocker list, and the deadlock search's visit
     mark. Lock entries point at owner records, not ids, so recomputing a
     blocker list and walking the waits-for graph need no table lookup.
     The memo is invalidated by a per-lock version counter, bumped only by
     mutations that can change an existing waiter's blocker set (grants,
     releases, cancellations, front-of-queue upgrades) — a plain tail
     enqueue cannot, so the common contention pattern keeps every cache
     warm.
   - An owner's record leaves the table once it neither holds nor waits.
     Owner ids are never recycled (each retry is a fresh transaction id),
     so the owner table and the search marks are bounded by the owners
     live at once, not by the largest id seen.

   Lock records are never removed once created: the backing arrays are
   reused on the next conflict over the same resource, and the resource
   space is bounded (nodes x db_size) in every simulator use. Both tables
   are [Int_table]s, so a lookup makes no C call. *)

module Int_table = Dangers_util.Int_table

type lock = {
  resource : int;
  (* granted set: [g_n] live entries, unordered, all granted [g_mode] *)
  mutable g_owner : owner array;
  mutable g_mode : Mode.t;
  mutable g_n : int;
  (* wait queue: ring buffer, capacity a power of two, [q_head] is front *)
  mutable q_buf : waiter array;
  mutable q_head : int;
  mutable q_n : int;
  (* bumped by any mutation that can change an existing waiter's blockers *)
  mutable version : int;
}

and owner = {
  id : int;
  mutable held : lock list; (* locks granted to this owner *)
  (* The lock this owner queues on, or the table's [idle] lock. Its
     blockers are memoized and valid while [w_version] matches the lock's
     version. *)
  mutable w_lock : lock;
  mutable w_version : int;
  mutable w_blockers : owner list; (* ascending id *)
  mutable mark : int; (* = [search_gen]: visited by the current search *)
}

and waiter = { w_owner : owner; w_mode : Mode.t; on_grant : unit -> unit }

type t = {
  locks : lock Int_table.t;
  owners : owner Int_table.t; (* owners that hold or wait *)
  mutable grants : int;
  mutable search_gen : int;
  mutable search_visits : int;
  (* Per-table sentinels, so no mutable record is shared across domains:
     [idle] is the [w_lock] of an owner that is not waiting and is never
     mutated; [vacant] fills unused slots of the lock arrays so they pin
     no retired owner. *)
  idle : lock;
  vacant : waiter;
}

type outcome = Granted | Queued

let new_lock resource =
  { resource; g_owner = [||]; g_mode = Mode.X; g_n = 0;
    q_buf = [||]; q_head = 0; q_n = 0; version = 0 }

let create () =
  let idle = new_lock min_int in
  let nobody =
    { id = min_int; held = []; w_lock = idle; w_version = 0; w_blockers = [];
      mark = 0 }
  in
  { locks = Int_table.create 1024; owners = Int_table.create 64; grants = 0;
    search_gen = 0; search_visits = 0; idle;
    vacant = { w_owner = nobody; w_mode = Mode.X; on_grant = ignore } }

let lock_for t resource =
  match Int_table.find_opt t.locks resource with
  | Some lock -> lock
  | None ->
      let lock = new_lock resource in
      Int_table.add t.locks resource lock;
      lock

let owner_for t id =
  match Int_table.find_opt t.owners id with
  | Some o -> o
  | None ->
      let o =
        { id; held = []; w_lock = t.idle; w_version = 0; w_blockers = [];
          mark = 0 }
      in
      Int_table.add t.owners id o;
      o

let waiting t o = o.w_lock != t.idle

(* Drop an owner that neither holds nor waits. *)
let retire_if_idle t o =
  match o.held with
  | [] when not (waiting t o) -> Int_table.remove t.owners o.id
  | _ -> ()

let bump lock = lock.version <- lock.version + 1

(* --- granted-set primitives --- *)

let g_find lock o =
  let rec scan i = if i >= lock.g_n then -1 else if lock.g_owner.(i) == o then i else scan (i + 1) in
  scan 0

(* Callers add only a mode compatible with the granted set, so [mode] is
   the set's mode from here on. *)
let g_add t lock o mode =
  let cap = Array.length lock.g_owner in
  if lock.g_n = cap then begin
    let owners = Array.make (max 1 (2 * cap)) t.vacant.w_owner in
    Array.blit lock.g_owner 0 owners 0 lock.g_n;
    lock.g_owner <- owners
  end;
  lock.g_owner.(lock.g_n) <- o;
  lock.g_mode <- mode;
  lock.g_n <- lock.g_n + 1

(* Compatible with every grant held by an owner other than [o]. An owner
   holds a lock at most once, so the only such set that conflicts and
   still admits [o] is [o]'s own sole grant: the upgrade case. *)
let admits lock o mode =
  lock.g_n = 0
  || Mode.compatible lock.g_mode mode
  || (lock.g_n = 1 && lock.g_owner.(0) == o)

let g_remove t lock i =
  let last = lock.g_n - 1 in
  lock.g_owner.(i) <- lock.g_owner.(last);
  lock.g_owner.(last) <- t.vacant.w_owner;
  lock.g_n <- last

(* --- ring-buffer queue primitives --- *)

let q_get lock i = lock.q_buf.((lock.q_head + i) land (Array.length lock.q_buf - 1))

let q_grow t lock =
  let cap = Array.length lock.q_buf in
  let cap' = if cap = 0 then 4 else 2 * cap in
  let buf = Array.make cap' t.vacant in
  for i = 0 to lock.q_n - 1 do
    buf.(i) <- q_get lock i
  done;
  lock.q_buf <- buf;
  lock.q_head <- 0

let q_push_back t lock w =
  if lock.q_n = Array.length lock.q_buf then q_grow t lock;
  lock.q_buf.((lock.q_head + lock.q_n) land (Array.length lock.q_buf - 1)) <- w;
  lock.q_n <- lock.q_n + 1

let q_push_front t lock w =
  if lock.q_n = Array.length lock.q_buf then q_grow t lock;
  let head = (lock.q_head - 1) land (Array.length lock.q_buf - 1) in
  lock.q_buf.(head) <- w;
  lock.q_head <- head;
  lock.q_n <- lock.q_n + 1

let q_pop_front t lock =
  let w = lock.q_buf.(lock.q_head) in
  lock.q_buf.(lock.q_head) <- t.vacant;
  lock.q_head <- (lock.q_head + 1) land (Array.length lock.q_buf - 1);
  lock.q_n <- lock.q_n - 1;
  w

(* Remove the owner's (unique) queue entry, preserving the order of the
   rest. O(queue), but only deadlock victims and aborts take this path. *)
let q_remove_owner t lock o =
  let mask = Array.length lock.q_buf - 1 in
  let rec find i = if i >= lock.q_n then -1 else if (q_get lock i).w_owner == o then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then begin
    for j = i to lock.q_n - 2 do
      lock.q_buf.((lock.q_head + j) land mask) <- q_get lock (j + 1)
    done;
    lock.q_buf.((lock.q_head + lock.q_n - 1) land mask) <- t.vacant;
    lock.q_n <- lock.q_n - 1
  end

(* --- wait state --- *)

let start_wait o lock =
  o.w_lock <- lock;
  o.w_version <- lock.version - 1

let stop_wait t o =
  o.w_lock <- t.idle;
  o.w_blockers <- []

let grant_waiter t lock waiter =
  let o = waiter.w_owner in
  (match g_find lock o with
  | -1 ->
      g_add t lock o waiter.w_mode;
      o.held <- lock :: o.held;
      t.grants <- t.grants + 1
  | _ -> lock.g_mode <- waiter.w_mode);
  stop_wait t o

(* Strict FIFO pump: grant from the front until the first waiter that still
   conflicts. Returns the grant callbacks to run once state is settled. *)
let pump t lock =
  let rec loop acc =
    if lock.q_n = 0 then List.rev acc
    else
      let waiter = q_get lock 0 in
      if admits lock waiter.w_owner waiter.w_mode then begin
        ignore (q_pop_front t lock);
        grant_waiter t lock waiter;
        bump lock;
        loop (waiter.on_grant :: acc)
      end
      else List.rev acc
  in
  loop []

let acquire t ~owner ~resource ~mode ~on_grant =
  let o = owner_for t owner in
  if waiting t o then
    invalid_arg "Lock_table.acquire: owner is already waiting";
  let lock = lock_for t resource in
  let gi = g_find lock o in
  if gi >= 0 then begin
    if Mode.covers ~held:lock.g_mode ~requested:mode then Granted
    else begin
      (* Upgrade S -> X. Sole holder upgrades in place; otherwise the upgrade
         waits at the front of the queue so it cannot deadlock behind new
         arrivals. *)
      if lock.g_n = 1 then begin
        lock.g_mode <- Mode.X;
        bump lock;
        Granted
      end
      else begin
        q_push_front t lock { w_owner = o; w_mode = mode; on_grant };
        bump lock;
        start_wait o lock;
        Queued
      end
    end
  end
  else begin
    if lock.q_n = 0 && admits lock o mode then begin
      g_add t lock o mode;
      o.held <- lock :: o.held;
      t.grants <- t.grants + 1;
      (* queue is empty, so no waiter cache can depend on this lock *)
      Granted
    end
    else begin
      (* A tail enqueue cannot change the blockers of anyone queued ahead,
         so the caches on this lock stay valid: no version bump. *)
      q_push_back t lock { w_owner = o; w_mode = mode; on_grant };
      start_wait o lock;
      Queued
    end
  end

(* An owner recorded as waiting must be present in its resource's queue; the
   two are updated together. If the invariant ever breaks we keep the old
   defensive answer (treat the request as X, the most conservative mode) but
   say so once instead of silently hiding incremental-graph divergence. The
   warn-once registry also counts the hit, so metrics snapshots surface it
   as [warnings_total] even when stderr scrolled away. *)
let missing_waiter ~owner ~resource =
  Dangers_obs.Warnings.warn ~key:"lock_table.missing_waiter"
    (Printf.sprintf
       "Lock_table invariant violation: owner %d is registered as waiting \
        on resource %d but has no queue entry; defaulting its mode to X"
       owner resource);
  Mode.X

let by_id a b = Int.compare a.id b.id

let recompute_blockers o =
  let lock = o.w_lock in
  (* Position and mode of the owner's own queue entry. *)
  let rec find i =
    if i >= lock.q_n then
      (lock.q_n, missing_waiter ~owner:o.id ~resource:lock.resource)
    else
      let w = q_get lock i in
      if w.w_owner == o then (i, w.w_mode) else find (i + 1)
  in
  let ahead, my_mode = find 0 in
  let acc = ref [] in
  if not (Mode.compatible lock.g_mode my_mode) then
    for i = 0 to lock.g_n - 1 do
      let holder = lock.g_owner.(i) in
      if holder != o then acc := holder :: !acc
    done;
  for i = 0 to ahead - 1 do
    let w = q_get lock i in
    if not (Mode.compatible w.w_mode my_mode) then acc := w.w_owner :: !acc
  done;
  List.sort_uniq by_id !acc

(* The memoized blockers of [o]; empty when it is not waiting. *)
let blocker_owners t o =
  if not (waiting t o) then []
  else if o.w_version = o.w_lock.version then o.w_blockers
  else begin
    let b = recompute_blockers o in
    o.w_version <- o.w_lock.version;
    o.w_blockers <- b;
    b
  end

let ids owners = List.map (fun o -> o.id) owners

let blockers t ~owner =
  match Int_table.find_opt t.owners owner with
  | None -> []
  | Some o -> ids (blocker_owners t o)

let blockers_fresh t ~owner =
  match Int_table.find_opt t.owners owner with
  | Some o when waiting t o -> ids (recompute_blockers o)
  | Some _ | None -> []

(* Same traversal as [Waits_for.find_cycle] — successors explored in
   ascending id order, visited nodes pruned, the start node itself never
   marked — but over the memoized blocker lists, with the visit mark kept
   in each owner's record: a visit costs no lookup and no allocation
   beyond the path list. *)
let find_cycle t ~start =
  t.search_gen <- t.search_gen + 1;
  let gen = t.search_gen in
  let rec dfs o path =
    t.search_visits <- t.search_visits + 1;
    let rec explore = function
      | [] -> None
      | successor :: rest ->
          if successor.id = start then Some (List.rev path)
          else if successor.mark = gen then explore rest
          else begin
            successor.mark <- gen;
            match dfs successor (successor.id :: path) with
            | Some _ as found -> found
            | None -> explore rest
          end
    in
    explore (blocker_owners t o)
  in
  match Int_table.find_opt t.owners start with
  | Some o -> dfs o [ start ]
  | None -> None (* neither holds nor waits, so nothing blocks it *)

let search_visits t = t.search_visits

let is_waiting t ~owner =
  match Int_table.find_opt t.owners owner with
  | Some o -> waiting t o
  | None -> false

let waiting_resource t ~owner =
  match Int_table.find_opt t.owners owner with
  | Some o when waiting t o -> Some o.w_lock.resource
  | Some _ | None -> None

let cancel_wait_of t o =
  if waiting t o then begin
    let lock = o.w_lock in
    q_remove_owner t lock o;
    bump lock;
    stop_wait t o;
    let callbacks = pump t lock in
    List.iter (fun callback -> callback ()) callbacks
  end

let cancel_wait t ~owner =
  match Int_table.find_opt t.owners owner with
  | None -> ()
  | Some o ->
      cancel_wait_of t o;
      retire_if_idle t o

let release_all t ~owner =
  match Int_table.find_opt t.owners owner with
  | None -> ()
  | Some o ->
      cancel_wait_of t o;
      let held = List.sort (fun a b -> Int.compare a.resource b.resource) o.held in
      o.held <- [];
      retire_if_idle t o;
      let callbacks =
        List.concat_map
          (fun lock ->
            (match g_find lock o with
            | -1 -> ()
            | i -> g_remove t lock i);
            t.grants <- t.grants - 1;
            bump lock;
            pump t lock)
          held
      in
      List.iter (fun callback -> callback ()) callbacks

let holds t ~owner ~resource =
  match Int_table.find_opt t.owners owner with
  | None -> None
  | Some o -> (
      match List.find_opt (fun lock -> lock.resource = resource) o.held with
      | None -> None
      | Some lock -> (
          match g_find lock o with -1 -> None | _ -> Some lock.g_mode))

let held_resources t ~owner =
  match Int_table.find_opt t.owners owner with
  | None -> []
  | Some o -> List.sort Int.compare (List.map (fun lock -> lock.resource) o.held)

let grants_outstanding t = t.grants
