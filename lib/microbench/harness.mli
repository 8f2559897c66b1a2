(** Criterion-style micro-benchmark core.

    A benchmark is a nullary closure timed on bechamel's monotonic clock:
    [warmup] untimed batches, then [samples] timed batches of [runs]
    back-to-back calls each; the recorded unit is nanoseconds per run.
    Summaries are mean/stddev (sample, n-1)/p50/p99/min/max over the
    batches. Each batch also counts the minor-heap words it allocates
    ([Gc.minor_words]), a figure that, unlike time, does not move with
    the host's load. *)

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
  words : float option;
      (** minor words allocated per run, mean over the batches; [None]
          for results recorded before words were counted *)
}

val run : bench -> stats

val of_samples :
  name:string -> warmup:int -> runs:int -> float array -> stats
(** Summarize raw per-run nanosecond samples, with no word count;
    exposed for tests.
    @raise Invalid_argument on an empty array. *)

val pp_stats : Format.formatter -> stats -> unit
(** One aligned human-readable line (no trailing newline). *)
