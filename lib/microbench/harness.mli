(** Criterion-style micro-benchmark core.

    A benchmark is a nullary closure timed on bechamel's monotonic clock:
    [warmup] untimed batches, then [samples] timed batches of [runs]
    back-to-back calls each; the recorded unit is nanoseconds per run.
    Summaries are mean/stddev (sample, n-1)/p50/p99/min/max over the
    batches. *)

type bench

val bench :
  ?warmup:int -> ?samples:int -> ?runs:int -> string -> (unit -> unit) ->
  bench
(** Defaults: [warmup = 3], [samples = 10], [runs = 1].
    @raise Invalid_argument on a non-positive sample or run count. *)

val name : bench -> string
(** The name its {!stats} are reported under. *)

type stats = {
  s_name : string;
  s_warmup : int;
  s_samples : int;
  s_runs : int;
  mean : float;  (** ns per run *)
  stddev : float;
  p50 : float;
  p99 : float;
  min : float;
  max : float;
}

val run : bench -> stats

val of_samples :
  name:string -> warmup:int -> runs:int -> float array -> stats
(** Summarize raw per-run nanosecond samples; exposed for tests.
    @raise Invalid_argument on an empty array. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with linear interpolation between closest ranks;
    [sorted] must be ascending and non-empty. *)

val pp_stats : Format.formatter -> stats -> unit
(** One aligned human-readable line (no trailing newline). *)
