(** The observability metrics registry: named counters, gauges and
    fixed-bucket histograms, plus pull-style sources, collapsed into one
    serialisable snapshot.

    Two integration styles, matching how the simulator's layers are built:

    - {b Push}: resolve a handle once at construction time
      ({!counter}/{!gauge}/{!histogram}) and mutate it on the hot path.
      An increment is a single unboxed store — no hashing, no allocation.
      Components guard the handle behind an [option] exactly like the
      engine's tracer, so a detached run pays nothing.
    - {b Pull}: a component that already keeps plain integer counters
      (the network, the lock table, the engine) registers a
      {!register_source} closure; it is read only when {!snapshot} runs,
      leaving the component's hot path untouched.

    A registry belongs to one simulated system and is not thread-safe;
    sweep workers each observe their own. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Interned: the same name returns the same handle. *)

val unregistered_counter : string -> counter
(** A handle no registry interns, for a component that keeps its counters
    private (one set per system, or per domain) and reports them through
    its own {!register_source}. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** Keep the maximum of the current and given value. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : ?buckets:float array -> t -> string -> histogram
(** Fixed upper-bound buckets plus an implicit overflow bucket. Interned by
    name; [buckets] is only consulted on first creation. The default
    spans 100 µs to 100 s in roughly 1–3–10 steps, for simulated-seconds
    latencies.
    @raise Invalid_argument if [buckets] is empty or not strictly
    increasing. *)

val observe : histogram -> float -> unit
(** [x] lands in the first bucket with [x <= upper], else overflow. *)

(** {1 Sources and phases} *)

type source_value = Count of string * int | Gauge of string * float

val register_source : t -> (unit -> source_value list) -> unit
(** Called at {!snapshot} time. Same-name [Count]s from different sources
    accumulate; same-name [Gauge]s keep the maximum. *)

val record_phase : t -> Profiling.phase -> unit
(** Append a profiled phase to the snapshot's phase list. *)

(** {1 Snapshots} *)

type histogram_snapshot = {
  hs_uppers : float array;
  hs_counts : int array;  (** one longer than [hs_uppers]: overflow last *)
  hs_count : int;
  hs_sum : float;
}

type snapshot = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * float) list;
  s_histograms : (string * histogram_snapshot) list;
  s_phases : Profiling.phase list;  (** in recording order *)
  s_warnings_total : int;  (** {!Warnings.total} at snapshot time *)
}

val snapshot : t -> snapshot
(** Runs every registered source, merges with the push-side handles, and
    freezes the result. *)

val snapshot_counter : snapshot -> string -> int option
val snapshot_gauge : snapshot -> string -> float option
val snapshot_histogram : snapshot -> string -> histogram_snapshot option

val histogram_quantile : histogram_snapshot -> q:float -> float
(** Estimate the [q]-quantile (clamped to [0, 1]) by linear interpolation
    inside the winning bucket, the standard Prometheus
    [histogram_quantile] construction: the first bucket interpolates from
    0, the overflow bucket clamps to the largest finite upper bound.
    0 when the histogram is empty. *)

val schema_id : string
(** ["dangers/metrics/v1"]. *)

val snapshot_to_json : snapshot -> Json.t
val snapshot_of_json : Json.t -> snapshot
(** @raise Json.Parse_error on a shape or schema mismatch. *)

val histogram_to_json : histogram_snapshot -> Json.t
val histogram_of_json : Json.t -> histogram_snapshot
(** The snapshot codec's histogram object, exposed for the
    {!Timeseries} window codec.
    @raise Json.Parse_error on a shape mismatch. *)
