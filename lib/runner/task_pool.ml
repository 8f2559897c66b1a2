module Domain_pool = Dangers_util.Domain_pool

(* Queried once: [Domain.recommended_domain_count] reads the cgroup/CPU
   topology on every call, and benchmark reports should name one stable
   number for the host. Forced from the coordinating domain when the pool
   is sized, before any worker spawns, so the lazy is never raced. *)
let[@lint.allow "R1"] cores = lazy (Domain.recommended_domain_count ())
let host_cores () = Lazy.force cores
let default_jobs () = host_cores ()

(* [Domain_pool.create]'s limit. More workers than that would only wait
   for indices the others already claim. *)
let max_workers = 128

let map ~jobs ~f tasks =
  let n = Array.length tasks in
  if jobs <= 1 || n <= 1 then Array.map f tasks
  else begin
    let results = Array.make n None in
    let pool = Domain_pool.create ~workers:(min max_workers (min jobs n)) in
    Fun.protect
      ~finally:(fun () -> Domain_pool.shutdown pool)
      (fun () ->
        Domain_pool.parallel_for pool ~n ~f:(fun i ->
            (* Suppressed DR1: [parallel_for] hands each index to exactly
               one worker, so the [tasks.(i)] read and [results.(i)] write
               are per-index exclusive, and its barrier publishes every
               write before [results] is read. Failures are caught here so
               that every task runs, as in the serial path. *)
            let r =
              try Ok ((f tasks.(i)) [@lint.allow "dr1"])
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            (results.(i) <- Some r) [@lint.allow "dr1"]));
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* every index ran before the barrier *))
      results
  end
