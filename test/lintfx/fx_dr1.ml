(* Seeded DR1 violations: unsynchronized mutable state crossing a domain
   boundary. test_lint pins each marked line, so keep the layout. The
   Domain_pool stand-in exercises name-based crossing-target matching
   without depending on the real library. *)

module Domain_pool = struct
  let parallel_for _pool ~n ~f =
    for i = 0 to n - 1 do
      f i
    done
end

(* a let-bound ref written on the spawned domain *)
let spawn_writes_local () =
  let counter = ref 0 in
  let d = Domain.spawn (fun () -> counter := 1) in
  Domain.join d;
  !counter

(* a caller-owned array read on the spawned domain *)
let spawn_reads_param (tasks : int array) =
  let d = Domain.spawn (fun () -> tasks.(0)) in
  Domain.join d

(* a caller-owned array written inside a pool worker *)
let pool_writes_param pool (results : int option array) =
  Domain_pool.parallel_for pool ~n:2 ~f:(fun i -> results.(i) <- Some i)

(* a module-level buffer touched directly inside the closure *)
let journal = Buffer.create 128

let spawn_touches_global () =
  let d = Domain.spawn (fun () -> Buffer.add_string journal "x") in
  Domain.join d

let append line = Buffer.add_string journal line

(* the same buffer reached through a call, one hop away *)
let spawn_reaches_global_via_call () =
  let d = Domain.spawn (fun () -> append "y") in
  Domain.join d

(* acknowledged capture: the suppression must silence it *)
let deliberate () =
  let scratch = ref 0 in
  let d = (Domain.spawn (fun () -> scratch := 1) [@lint.allow "dr1"]) in
  Domain.join d;
  !scratch
