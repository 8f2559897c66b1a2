(** The wall-clock two-tier service: the §7 scheme, unchanged, run on the
    live runtime and exposed to out-of-process clients over a Unix-domain
    stream socket speaking {!Protocol}.

    Single-domain by construction: the live clock's run loop parks in the
    idle waiter ([Unix.select] over the listen and client sockets)
    whenever no timer is due, so requests are handled on the same domain
    that fires scheme events and can call straight into the scheme — the
    live analogue of the simulator's single-threaded event loop, with no
    locks in scheme code.

    Each connecting client is assigned a mobile node (round-robin over
    the mobile tier; recycled if clients outnumber mobiles). Mobility is
    client-driven: the scheme is created with the never-cycling
    {!Dangers_net.Connectivity.base_node} spec and clients churn
    themselves with [Set_connected] / [Sync].

    Observability: per-request latency lands in the
    [serve.request_seconds] histogram of the server's registry (alongside
    the scheme's own counters, the two-tier lag gauges and the [net.*]
    sources); on shutdown the snapshot is self-validated against the
    dangers/metrics/v1 schema and optionally written as JSON. The registry
    is additionally sampled into a {!Dangers_obs.Timeseries} every
    [sample_interval] wall seconds from the idle waiter, each window
    streaming to [series_out] as dangers/metrics-series/v1 JSONL as it is
    taken. Clients scrape the registry mid-run with
    [Metrics_snapshot]/[Metrics_prom] — what [dangers stat] polls. *)

type config = {
  socket_path : string;  (** Unix-domain socket; unlinked and rebound *)
  base_nodes : int;
  params : Dangers_analytic.Params.t;
  seed : int;
  metrics_out : string option;  (** write the final snapshot here *)
  series_out : string option;  (** stream sampled windows here as JSONL *)
  sample_interval : float;  (** wall seconds between series windows *)
  quiet : bool;  (** suppress per-connection stderr notes *)
  print_summary : bool;  (** print the one-line stdout summary on exit *)
}

val serve : config -> Protocol.stats
(** Run until a client sends [Shutdown] (or SIGINT). Blocks. Returns the
    final scheme counters after printing a one-line summary (unless
    [print_summary] is false).
    @raise Invalid_argument on invalid [params], [base_nodes] or a
    non-positive [sample_interval]. *)
