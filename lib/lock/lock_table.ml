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
   - An owner's record leaves the table once it neither holds nor waits,
     and goes to the table's owner pool, as lock records do (below); the
     next new owner id takes it, held-lock array and all. Owner ids are
     never recycled (each retry is a fresh transaction id), so the owner
     table and the search marks are bounded by the owners live at once,
     not by the largest id seen. A record leaves only when no lock lists
     it, and every removal from a lock bumps that lock's version, so no
     valid memoized blocker list names a pooled record.
   - A lock record leaves the table once it has no holder and no waiter,
     and goes to the table's spare pool, a list threaded through the
     records themselves. The next resource to need a record takes it,
     arrays and all, so the table holds the locks live now, and the pool
     holds at most the peak live locks, never every resource ever locked.
     A reused record keeps counting its [version] up, so no memoized
     blocker list can validate against a later use of the record.

   Both maps are [Int_table]s with a sentinel filler, so a lookup neither
   calls C nor allocates. With both pools warm, an uncontended acquire
   allocates nothing.

   [release_all] drops the owner's grants in place, in held order,
   pumping each queue. A pump pushes the waiters it grants on the
   table's wake stack, with their resources; once the state has settled
   the release sorts what it pushed by resource and runs the callbacks,
   so they fire in ascending resource order, each lock's in queue order,
   and a release allocates nothing, whether it wakes anyone or not.
   Lock records retire into the pool in held order; a reused record
   keeps counting its [version] up, so that order is harmless.

   A blocker list is built by sorted insertion, with no sort call and
   its closures. The deadlock search keeps its visit marks and
   search-tree links in the owner records and reads the path back only
   for a cycle.

   The scans on these paths are top-level functions over explicit
   arguments: a local closure would be allocated on every call. With
   [DANGERS_LOCK_DEBUG] set, every mutation ends with [self_check]. *)

module Int_table = Dangers_util.Int_table

type lock = {
  mutable resource : int;
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
  mutable next_spare : lock; (* in the spare pool: the next record, or [idle] *)
}

and owner = {
  mutable id : int;
  (* locks granted to this owner: [h_n] live entries, in grant order *)
  mutable held : lock array;
  mutable h_n : int;
  (* The lock this owner queues on, or the table's [idle] lock. Its
     blockers are memoized and valid while [w_version] matches the lock's
     version. *)
  mutable w_lock : lock;
  mutable w_version : int;
  mutable w_blockers : owner list; (* ascending id *)
  mutable mark : int; (* = [search_gen]: visited by the current search *)
  mutable parent : owner; (* the owner the current search reached it from *)
  mutable next_owner : owner; (* in the owner pool: the next, or [nobody] *)
}

and waiter = { w_owner : owner; w_mode : Mode.t; on_grant : unit -> unit }

type t = {
  locks : lock Int_table.t; (* locks that are held or waited for *)
  owners : owner Int_table.t; (* owners that hold or wait *)
  mutable spare : lock; (* the spare pool's first record, or [idle] *)
  mutable spare_owners : owner; (* the owner pool's first, or [nobody] *)
  mutable live_locks_high_water : int;
  mutable grants : int;
  mutable search_gen : int;
  mutable search_visits : int;
  mutable waits : int; (* [request]s that queued *)
  mutable deadlocks : int; (* [request]s that closed a cycle *)
  (* The wake stack: granted waiters whose callbacks have not run yet,
     with their resources. Each release runs and pops what it pushed. *)
  mutable woken : waiter array;
  mutable woken_resource : int array;
  mutable woken_n : int;
  (* Per-table sentinels, so no mutable record is shared across domains:
     [idle] is the [w_lock] of an owner that is not waiting, the end of
     the spare pool and the filler of [locks], and is never mutated;
     [vacant] fills unused slots of the lock arrays so they pin no retired
     owner, and its owner, [nobody], fills [owners] and ends the owner
     pool. *)
  idle : lock;
  vacant : waiter;
}

type verdict = Granted | Waiting | Deadlock of int list
type outcome = Granted | Queued

let debug =
  match Sys.getenv_opt "DANGERS_LOCK_DEBUG" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let create ?obs () =
  let rec idle =
    { resource = min_int; g_owner = [||]; g_mode = Mode.X; g_n = 0;
      q_buf = [||]; q_head = 0; q_n = 0; version = 0; next_spare = idle }
  in
  let rec nobody =
    { id = min_int; held = [||]; h_n = 0; w_lock = idle; w_version = 0;
      w_blockers = []; mark = 0; parent = nobody; next_owner = nobody }
  in
  let vacant = { w_owner = nobody; w_mode = Mode.X; on_grant = ignore } in
  let t =
    { locks = Int_table.create ~filler:idle 64;
      owners = Int_table.create ~filler:nobody 64; spare = idle;
      spare_owners = nobody;
      live_locks_high_water = 0; grants = 0; search_gen = 0; search_visits = 0;
      waits = 0; deadlocks = 0;
      woken = Array.make 4 vacant; woken_resource = Array.make 4 0;
      woken_n = 0; idle; vacant }
  in
  Option.iter
    (fun registry ->
      Dangers_obs.Metrics.register_source registry (fun () ->
          [
            Dangers_obs.Metrics.Count ("lock.waits_total", t.waits);
            Dangers_obs.Metrics.Count ("lock.deadlocks_total", t.deadlocks);
            Dangers_obs.Metrics.Count
              ("lock.deadlock_dfs_visits_total", t.search_visits);
            Dangers_obs.Metrics.Gauge
              ( "lock.live_locks_high_water",
                float_of_int t.live_locks_high_water );
          ]))
    obs;
  t

let nobody t = t.vacant.w_owner

(* The resource's record, taken from the spare pool or made when the
   resource has none. *)
let lock_for t resource =
  let lock = Int_table.get t.locks resource in
  if lock != t.idle then lock
  else begin
    let lock =
      if t.spare == t.idle then
        { resource; g_owner = [||]; g_mode = Mode.X; g_n = 0; q_buf = [||];
          q_head = 0; q_n = 0; version = 0; next_spare = t.idle }
      else begin
        let lock = t.spare in
        t.spare <- lock.next_spare;
        lock.next_spare <- t.idle;
        lock.resource <- resource;
        lock
      end
    in
    Int_table.add t.locks resource lock;
    let live = Int_table.length t.locks in
    if live > t.live_locks_high_water then t.live_locks_high_water <- live;
    lock
  end

(* Send a lock with no holder and no waiter to the spare pool. Its arrays
   hold only [vacant] entries by then: removals and pops clear the slots
   they empty. *)
let retire_lock_if_idle t lock =
  if lock.g_n = 0 && lock.q_n = 0 then begin
    Int_table.remove t.locks lock.resource;
    lock.next_spare <- t.spare;
    t.spare <- lock
  end

(* The owner's record, taken from the owner pool or made when the owner
   has none. A pooled record holds nothing and waits on nothing. *)
let owner_for t id =
  let o = Int_table.get t.owners id in
  if o != nobody t then o
  else begin
    let o =
      if t.spare_owners == nobody t then
        { id; held = [||]; h_n = 0; w_lock = t.idle; w_version = 0;
          w_blockers = []; mark = 0; parent = nobody t;
          next_owner = nobody t }
      else begin
        let o = t.spare_owners in
        t.spare_owners <- o.next_owner;
        o.next_owner <- nobody t;
        o.id <- id;
        o
      end
    in
    Int_table.add t.owners id o;
    o
  end

let waiting t o = o.w_lock != t.idle

(* Send an owner that neither holds nor waits to the owner pool. The
   caller must not touch the record afterwards: the next new owner may
   take it. *)
let retire_if_idle t o =
  if o.h_n = 0 && not (waiting t o) then begin
    Int_table.remove t.owners o.id;
    o.next_owner <- t.spare_owners;
    t.spare_owners <- o
  end

(* Record a grant of [lock] to [o]. *)
let hold t o lock =
  if o.h_n = Array.length o.held then begin
    let held = Array.make (max 4 (2 * o.h_n)) t.idle in
    Array.blit o.held 0 held 0 o.h_n;
    o.held <- held
  end;
  o.held.(o.h_n) <- lock;
  o.h_n <- o.h_n + 1;
  t.grants <- t.grants + 1

(* The debug invariants: the maps hold no idle record, each under its own
   key, and [grants] counts the granted entries. *)
let self_check t =
  let granted =
    Int_table.fold
      (fun resource lock sum ->
        if lock.resource <> resource || (lock.g_n = 0 && lock.q_n = 0) then
          failwith
            (Printf.sprintf "Lock_table: idle or misfiled lock record at %d"
               resource);
        sum + lock.g_n)
      t.locks 0
  in
  if granted <> t.grants then
    failwith
      (Printf.sprintf "Lock_table: %d grants counted, %d granted entries"
         t.grants granted);
  Int_table.fold
    (fun id o () ->
      if o.id <> id || (o.h_n = 0 && not (waiting t o)) then
        failwith (Printf.sprintf "Lock_table: idle or misfiled owner %d" id))
    t.owners ()

let bump lock = lock.version <- lock.version + 1

(* --- granted-set primitives --- *)

let rec g_scan lock o i =
  if i >= lock.g_n then -1
  else if lock.g_owner.(i) == o then i
  else g_scan lock o (i + 1)

let g_find lock o = g_scan lock o 0

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

(* The position of [o]'s (unique) queue entry, or [q_n] if it has none. *)
let rec q_index lock o i =
  if i >= lock.q_n || (q_get lock i).w_owner == o then i
  else q_index lock o (i + 1)

(* Remove the owner's queue entry, preserving the order of the rest.
   O(queue), but only deadlock victims and aborts take this path. *)
let q_remove_owner t lock o =
  let mask = Array.length lock.q_buf - 1 in
  let i = q_index lock o 0 in
  if i < lock.q_n then begin
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
      hold t o lock
  | _ -> lock.g_mode <- waiter.w_mode);
  stop_wait t o

(* --- the wake stack --- *)

let wake_push t resource waiter =
  let n = t.woken_n in
  if n = Array.length t.woken then begin
    let woken = Array.make (2 * n) t.vacant in
    let woken_resource = Array.make (2 * n) 0 in
    Array.blit t.woken 0 woken 0 n;
    Array.blit t.woken_resource 0 woken_resource 0 n;
    t.woken <- woken;
    t.woken_resource <- woken_resource
  end;
  t.woken.(n) <- waiter;
  t.woken_resource.(n) <- resource;
  t.woken_n <- n + 1

(* Stable insertion sort of the stack from [base] up by resource: the
   callbacks of one release run in ascending resource order, each lock's
   in its queue's order. A release wakes few waiters; sorting the held
   locks instead, a commit's dozens on eager, cost more than it saved. *)
let sort_woken t base =
  for i = base + 1 to t.woken_n - 1 do
    let waiter = t.woken.(i) and resource = t.woken_resource.(i) in
    let j = ref i in
    while !j > base && t.woken_resource.(!j - 1) > resource do
      t.woken.(!j) <- t.woken.(!j - 1);
      t.woken_resource.(!j) <- t.woken_resource.(!j - 1);
      decr j
    done;
    t.woken.(!j) <- waiter;
    t.woken_resource.(!j) <- resource
  done

(* Run and pop the callbacks pushed from [base] up, bottom first. A
   callback that releases locks pushes above ours and pops back before
   it returns, and may grow the array, so each slot is read afresh. *)
let run_woken t base =
  for i = base to t.woken_n - 1 do
    let waiter = t.woken.(i) in
    t.woken.(i) <- t.vacant;
    waiter.on_grant ()
  done;
  t.woken_n <- base

(* Strict FIFO pump: grant from the front until the first waiter that still
   conflicts. Each granted waiter goes on the wake stack, for its callback
   to run once the state is settled. *)
let rec pump t lock =
  if lock.q_n > 0 then begin
    let waiter = q_get lock 0 in
    if admits lock waiter.w_owner waiter.w_mode then begin
      ignore (q_pop_front t lock);
      grant_waiter t lock waiter;
      bump lock;
      wake_push t lock.resource waiter;
      pump t lock
    end
  end

let acquire_in t ~owner ~resource ~mode ~on_grant =
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
      hold t o lock;
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

let acquire t ~owner ~resource ~mode ~on_grant =
  let outcome = acquire_in t ~owner ~resource ~mode ~on_grant in
  if debug then self_check t;
  outcome

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

(* [o] inserted into [owners], ascending by id without duplicates; the
   cells before [o] are copied. *)
let rec insert_by_id o = function
  | [] -> [ o ]
  | x :: rest as owners ->
      if x == o then owners
      else if x.id > o.id then o :: owners
      else x :: insert_by_id o rest

(* Add the holders of [lock] other than [o], from [i] on. *)
let rec add_holders lock o i acc =
  if i >= lock.g_n then acc
  else
    let holder = lock.g_owner.(i) in
    add_holders lock o (i + 1)
      (if holder != o then insert_by_id holder acc else acc)

(* Add the waiters in [lock]'s queue before position [i] whose mode
   conflicts with [mode], the latest first: ids mostly grow along a
   queue, so nearly every insertion lands at the head and copies
   nothing. *)
let rec add_waiters lock mode i acc =
  if i = 0 then acc
  else
    let w = q_get lock (i - 1) in
    add_waiters lock mode (i - 1)
      (if Mode.compatible w.w_mode mode then acc else insert_by_id w.w_owner acc)

let recompute_blockers o =
  let lock = o.w_lock in
  (* Position and mode of the owner's own queue entry. *)
  let ahead = q_index lock o 0 in
  let my_mode =
    if ahead < lock.q_n then (q_get lock ahead).w_mode
    else missing_waiter ~owner:o.id ~resource:lock.resource
  in
  let waiters = add_waiters lock my_mode ahead [] in
  if Mode.compatible lock.g_mode my_mode then waiters
  else add_holders lock o 0 waiters

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

let blockers t ~owner = ids (blocker_owners t (Int_table.get t.owners owner))

let blockers_fresh t ~owner =
  let o = Int_table.get t.owners owner in
  if waiting t o then ids (recompute_blockers o) else []

(* Same traversal as [Waits_for.find_cycle] — successors explored in
   ascending id order, visited nodes pruned, the start node itself never
   marked — but over the memoized blocker lists, with the visit mark and
   the owner it was reached from kept in each owner's record. A visit
   costs no lookup and allocates nothing: the path is read back through
   the [parent] links only once a cycle is found, so with warm blocker
   memos a search that finds none allocates nothing. *)
let rec path_back root o acc =
  if o == root then root.id :: acc else path_back root o.parent (o.id :: acc)

let rec visit t gen root o =
  t.search_visits <- t.search_visits + 1;
  explore t gen root o (blocker_owners t o)

and explore t gen root o = function
  | [] -> None
  | successor :: rest ->
      if successor == root then Some (path_back root o [])
      else if successor.mark = gen then explore t gen root o rest
      else begin
        successor.mark <- gen;
        successor.parent <- o;
        match visit t gen root successor with
        | Some _ as found -> found
        | None -> explore t gen root o rest
      end

let find_cycle t ~start =
  t.search_gen <- t.search_gen + 1;
  let root = Int_table.get t.owners start in
  (* An owner that neither holds nor waits has no blockers. *)
  if root == nobody t then None else visit t t.search_gen root root

let search_visits t = t.search_visits
let waits t = t.waits
let deadlocks t = t.deadlocks
let is_waiting t ~owner = waiting t (Int_table.get t.owners owner)

let waiting_resource t ~owner =
  let o = Int_table.get t.owners owner in
  if waiting t o then Some o.w_lock.resource else None

let cancel_wait_of t o =
  if waiting t o then begin
    let lock = o.w_lock in
    q_remove_owner t lock o;
    bump lock;
    stop_wait t o;
    let base = t.woken_n in
    pump t lock;
    retire_lock_if_idle t lock;
    run_woken t base
  end

let cancel_wait t ~owner =
  let o = Int_table.get t.owners owner in
  if o != nobody t then begin
    cancel_wait_of t o;
    retire_if_idle t o;
    if debug then self_check t
  end

let drop_grant t lock o =
  (match g_find lock o with -1 -> () | i -> g_remove t lock i);
  t.grants <- t.grants - 1;
  bump lock

(* Drop [o]'s grants on [held.(i)] onwards, pumping each queue. A pump
   touches only its lock and the waiters it grants, and a waiter waits on
   one lock, so the held order is as good as any. *)
let rec release_from t o i =
  if i < o.h_n then begin
    let lock = o.held.(i) in
    drop_grant t lock o;
    pump t lock;
    retire_lock_if_idle t lock;
    release_from t o (i + 1)
  end

let release_all t ~owner =
  let o = Int_table.get t.owners owner in
  if o != nobody t then begin
    cancel_wait_of t o;
    let base = t.woken_n in
    release_from t o 0;
    o.h_n <- 0;
    retire_if_idle t o;
    sort_woken t base;
    run_woken t base;
    if debug then self_check t
  end

let rec find_held o resource i =
  if i >= o.h_n then -1
  else if o.held.(i).resource = resource then i
  else find_held o resource (i + 1)

let holds t ~owner ~resource =
  let o = Int_table.get t.owners owner in
  match find_held o resource 0 with
  | -1 -> None
  | i -> (
      let lock = o.held.(i) in
      match g_find lock o with -1 -> None | _ -> Some lock.g_mode)

let held_resources t ~owner =
  let o = Int_table.get t.owners owner in
  List.sort Int.compare (List.init o.h_n (fun i -> o.held.(i).resource))

(* The debug cross-check of [request]'s search: the from-scratch DFS
   over freshly recomputed blockers must find the same cycle. *)
let cross_check t ~start result =
  let successors owner = blockers_fresh t ~owner in
  let reference = Waits_for.find_cycle ~successors ~start in
  if result <> reference then begin
    let show = function
      | None -> "no cycle"
      | Some c -> String.concat "->" (List.map string_of_int c)
    in
    failwith
      (Printf.sprintf
         "Lock_table: incremental waits-for diverged from reference DFS for \
          owner %d (incremental: %s, reference: %s)"
         start (show result) (show reference))
  end

let request t ~owner ~resource ~mode ~on_grant : verdict =
  match acquire t ~owner ~resource ~mode ~on_grant with
  | Granted -> Granted
  | Queued -> (
      t.waits <- t.waits + 1;
      let result = find_cycle t ~start:owner in
      if debug then cross_check t ~start:owner result;
      match result with
      | None -> Waiting
      | Some cycle ->
          t.deadlocks <- t.deadlocks + 1;
          cancel_wait t ~owner;
          Deadlock cycle)

let grants_outstanding t = t.grants
let live_locks t = Int_table.length t.locks
let live_locks_high_water t = t.live_locks_high_water
