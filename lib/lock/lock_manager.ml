type t = {
  locks : Lock_table.t;
  mutable wait_count : int;
  mutable deadlock_count : int;
  mutable visits_at_reset : int; (* [Lock_table.search_visits] at the last reset *)
  debug_check : bool;
}

type outcome = Granted | Waiting | Deadlock of int list

let dfs_visits t = Lock_table.search_visits t.locks - t.visits_at_reset

(* DANGERS_LOCK_DEBUG=1 turns the reference cross-check on everywhere, e.g.
   for a CI run of the full suite against the incremental detector. *)
let create ?obs ?(debug_check = Lock_table.debug) () =
  let t =
    {
      locks = Lock_table.create ();
      wait_count = 0;
      deadlock_count = 0;
      visits_at_reset = 0;
      debug_check;
    }
  in
  (match obs with
  | None -> ()
  | Some registry ->
      Dangers_obs.Metrics.register_source registry (fun () ->
          [
            Dangers_obs.Metrics.Count ("lock.waits_total", t.wait_count);
            Dangers_obs.Metrics.Count ("lock.deadlocks_total", t.deadlock_count);
            Dangers_obs.Metrics.Count
              ("lock.deadlock_dfs_visits_total", dfs_visits t);
            Dangers_obs.Metrics.Gauge
              ( "lock.live_locks_high_water",
                float_of_int (Lock_table.live_locks_high_water t.locks) );
          ]));
  t

let cross_check t ~start result =
  let successors owner = Lock_table.blockers_fresh t.locks ~owner in
  let reference = Waits_for.find_cycle ~successors ~start in
  if result <> reference then
    failwith
      (Printf.sprintf
         "Lock_manager: incremental waits-for diverged from reference DFS \
          for owner %d (incremental: %s, reference: %s)"
         start
         (match result with
         | None -> "no cycle"
         | Some c -> String.concat "->" (List.map string_of_int c))
         (match reference with
         | None -> "no cycle"
         | Some c -> String.concat "->" (List.map string_of_int c)))

let request t ~owner ~resource ~mode ~on_grant =
  match Lock_table.acquire t.locks ~owner ~resource ~mode ~on_grant with
  | Lock_table.Granted -> Granted
  | Lock_table.Queued -> (
      t.wait_count <- t.wait_count + 1;
      let result = Lock_table.find_cycle t.locks ~start:owner in
      if t.debug_check then cross_check t ~start:owner result;
      match result with
      | None -> Waiting
      | Some cycle ->
          t.deadlock_count <- t.deadlock_count + 1;
          Lock_table.cancel_wait t.locks ~owner;
          Deadlock cycle)

let release_all t ~owner = Lock_table.release_all t.locks ~owner
let table t = t.locks
let waits t = t.wait_count
let deadlocks t = t.deadlock_count

let reset_counters t =
  t.wait_count <- 0;
  t.deadlock_count <- 0;
  t.visits_at_reset <- Lock_table.search_visits t.locks
