(** A one-shot domain pool for independent simulation tasks.

    Each {!map} creates a {!Dangers_util.Domain_pool}, runs one
    [parallel_for] over the task indices and shuts the pool down; results
    land in a slot array indexed by task, so the output order is the input
    order no matter which domain ran what, or when.
    Combined with per-task RNG seeding (every simulation derives all of
    its randomness from the seed stored in the task itself) this makes a
    parallel run's results byte-identical to a serial run's.

    Tasks must be independent: they may not share mutable state. Every
    simulator in this repo qualifies — a run builds its own engine, stores
    and RNG from scratch. *)

val host_cores : unit -> int
(** The hardware's usable parallelism, [Domain.recommended_domain_count]
    detected once and memoized. Benchmark exports record this so
    serial-vs-parallel speedups are interpretable on the machine that
    produced them. *)

val default_jobs : unit -> int
(** Defaults to {!host_cores}. *)

val map : jobs:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs ~f tasks] applies [f] to every task on up to [jobs] domains
    (at most 128, the pool's limit) and returns the results in task order.
    [jobs <= 1] runs inline with no domains at all. If any task raises, the exception of the
    lowest-indexed failing task is re-raised (with its backtrace) after
    all workers have finished. *)
