(** Ambient observation context: the metrics registry and tracer a run
    should attach to, carried implicitly to wherever the simulated system
    is actually built.

    The scheme registry's [run] functions construct their systems deep
    inside opaque experiment code; threading an [?obs]/[?tracer] pair
    through every such signature would ripple across the whole repo. The
    CLI (or the sweep worker) instead wraps one run in
    {!with_observation}, and {!Dangers_replication.Common.make}-style
    constructors consult the ambient as their default. The context is
    domain-local, so parallel sweep workers each observe only their own
    task; with nothing installed every lookup is [None] and behaviour is
    byte-identical to an unobserved run. *)

val with_observation :
  ?obs:Dangers_obs.Metrics.t ->
  ?tracer:Trace.t ->
  ?series:Dangers_obs.Timeseries.t ->
  (unit -> 'a) ->
  'a
(** Install the given registry/tracer/series recorder as this domain's
    ambient context for the duration of the callback (restoring the
    previous context even on exceptions). Omitted arguments clear the
    corresponding slot; the ambient domain budget (see {!with_domains}) is
    preserved. A [series] only makes sense alongside the [obs] registry it
    records — schemes sample it on the simulated clock during their
    measured window. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** Install a simulation-domain budget — one task's share of the CLI's
    [--jobs] budget, as {!Dangers_runner.Sweep.run} splits it — as part
    of this domain's ambient context for the duration of the callback,
    preserving the registry/tracer slots. Schemes that support
    partitioned execution size their {!Dangers_util.Domain_pool} from
    {!ambient_domains}; every other scheme ignores it and runs serially
    (which is trivially byte-identical at any budget).
    @raise Invalid_argument if [domains < 1]. *)

val ambient_obs : unit -> Dangers_obs.Metrics.t option
val ambient_tracer : unit -> Trace.t option
val ambient_series : unit -> Dangers_obs.Timeseries.t option

val ambient_domains : unit -> int
(** The installed budget; 1 with nothing installed. *)

val profiled : ?obs:Dangers_obs.Metrics.t -> string -> (unit -> unit) -> unit
(** Run the callback; when a registry is given or installed as the ambient
    one, record its wall-clock and allocation profile there as the named
    phase. *)
