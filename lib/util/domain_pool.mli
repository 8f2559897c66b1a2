(** A persistent pool of worker domains for barrier-style parallel loops.

    The conservative parallel simulation engine runs one parallel loop per
    synchronization window — thousands per run — and [Domain.spawn] costs
    far too much to pay per window. This pool spawns its workers once and
    reuses them: each {!parallel_for} call is a generation; workers claim
    indices off a shared cursor, run the body, and meet at a barrier
    before the call returns. The sweep runner's [Task_pool.map] uses it
    one-shot: create, one {!parallel_for} over the tasks, shutdown.

    Memory model: all pool state is accessed under one mutex, and the
    barrier in {!parallel_for} orders every write made by the body before
    the return — callers may freely read plain (non-atomic) state written
    by the loop body after {!parallel_for} returns, exactly as they could
    after [Domain.join].

    Determinism: the pool only decides {e which domain} runs index [i],
    never {e whether} or {e in what generation}; a body whose work for
    index [i] depends only on [i] (the invariant the parallel simulator
    maintains) gives byte-identical results at any pool size, including
    the inline [size = 1] pool. *)

type t

val create : workers:int -> t
(** [create ~workers] spawns [workers - 1] domains (the caller's domain is
    the remaining worker: it participates in every {!parallel_for}).
    [workers <= 1] spawns nothing and runs every loop inline.
    @raise Invalid_argument if [workers < 1] or [workers > 128]. *)

val size : t -> int
(** The [workers] it was created with. *)

val parallel_for : t -> n:int -> f:(int -> unit) -> unit
(** [parallel_for t ~n ~f] runs [f i] once for every [i] in [[0, n)],
    distributed over the pool, and returns when all have finished. If any
    [f i] raises, remaining un-started indices are abandoned and the
    exception of the lowest-claimed failing index is re-raised after the
    barrier. Not reentrant: [f] must not itself call {!parallel_for} on
    the same pool. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; {!parallel_for} after shutdown
    raises [Invalid_argument]. *)
