(** The shipped rule set. Rationale for each lives in [docs/LINT.md].

    - [D1] — banned nondeterministic calls ([Random.self_init], the
      global [Random] state, [Unix.gettimeofday], [Sys.time],
      [Hashtbl.hash]) in simulator/replication/core code.
    - [D2] — unordered [Hashtbl.iter]/[Hashtbl.fold] in export, snapshot
      and JSON modules, unless the fold feeds a sort in the same
      expression.
    - [D3] — polymorphic [=]/[<>]/[compare]/[min]/[max] instantiated at
      float (or a float-bearing tuple/option/list/array) in library code.
    - [R1] — module-level mutable state ([ref], [Hashtbl.create],
      [lazy], ...) in code reachable from [Runner.Task_pool] workers that
      is not [Atomic], [Mutex]-guarded, or [Domain.DLS]-scoped.
    - [P1] — silently partial stdlib functions ([List.hd], [List.tl],
      [List.nth], [Option.get]) in library code.

    Whole-program rules (two-phase, call-graph-aware):

    - [DR1] — mutable state captured by, or reachable from, a closure
      that crosses a domain boundary ([Domain.spawn], [Thread.create],
      [Domain_pool.parallel_for], [Task_pool.map], [Engine.post])
      without Atomic/Mutex/DLS synchronization.
    - [DR2] — [Atomic.set a (f (Atomic.get a))]: a lost-update window
      between two atomic operations.
    - [DR3] — mutex discipline: lock/unlock imbalance across paths,
      raising while holding outside [Fun.protect], blocking calls under
      a lock (warning severity).
    - [DR4] — module-level mutable state reached both from a
      domain-crossing closure and from ordinary top-level code. *)

val all : Rule.t list
(** Every shipped rule, in id order. *)

val find : string -> Rule.t option
(** Case-insensitive lookup by id. *)

val ids : unit -> string list
