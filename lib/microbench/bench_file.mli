(** The BENCH_micro.json file format.

    A single JSON object:
    {v
    {"schema": "dangers/bench-micro/v1",
     "host_cores": N, "quick": false,
     "benchmarks": [{"name": ..., "warmup": ..., "samples": ..., "runs": ...,
                     "mean_ns": ..., "stddev_ns": ..., "p50_ns": ...,
                     "p99_ns": ..., "min_ns": ..., "max_ns": ...,
                     "minor_words_per_run": ...}, ...]}
    v}
    All times are nanoseconds per run. [minor_words_per_run] is optional:
    files written before it was recorded lack it and still load. Encoded
    with {!Dangers_obs.Json}, so floats round-trip exactly. *)

val schema_id : string

type t = {
  host_cores : int;
  quick : bool;
  benchmarks : Harness.stats list;
}

val to_json : t -> Dangers_obs.Json.t

val of_json : Dangers_obs.Json.t -> t
(** @raise Dangers_obs.Json.Parse_error on a malformed or wrong-schema
    value. *)

val save : string -> t -> unit

val load : string -> t
(** @raise Dangers_obs.Json.Parse_error or [Sys_error]. *)
