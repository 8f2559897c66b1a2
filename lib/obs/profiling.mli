(** Run profiling: per-phase wall-clock and allocation accounting.

    A phase is one named stretch of work — a sweep task, a warmup, a
    measured window. {!timed} brackets the work with [Unix.gettimeofday]
    and [Gc.quick_stat] (both cheap: no heap walk), so profiling a phase
    costs two clock reads and two stat reads, independent of the work
    inside. *)

type phase = {
  phase : string;
  wall_seconds : float;
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated directly in the major heap,
                            plus promotions *)
  promoted_words : float;
}

val timed : string -> (unit -> 'a) -> 'a * phase
(** [timed name f] runs [f ()] and reports what it cost. Exceptions from
    [f] propagate unprofiled. *)

val allocated_words : phase -> float
(** Total mutator allocation: minor + major − promoted (promoted words are
    counted in both). *)

val to_json : phase -> Json.t
val of_json : Json.t -> phase
(** @raise Json.Parse_error on a shape mismatch. *)
