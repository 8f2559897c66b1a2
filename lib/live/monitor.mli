(** Client-side scraping and rendering for [dangers stat] and its
    [--watch] dashboard: one persistent {!Protocol} connection to a running
    {!Server}, polled for metrics.

    The connection is deliberately held open across polls — the server
    assigns a mobile node per connection, so a poller that reconnected for
    every sample would churn the round-robin assignment under the feet of
    real load clients. A monitor never submits transactions; its node
    assignment is inert. *)

module Obs = Dangers_obs.Metrics

type t

val connect : socket:string -> t
(** @raise Unix.Unix_error when the socket is absent or refuses. *)

val close : t -> unit

val stats : t -> Protocol.stats
val snapshot_json : t -> string
(** The raw [dangers/metrics/v1] document, newline-terminated. *)

val prom : t -> string
(** The raw Prometheus text exposition. *)

(** {1 Polling with rates} *)

type frame = {
  f_time : float;  (** client wall clock when the scrape returned *)
  f_dt : float;  (** seconds since the previous {!poll}; 0 on the first *)
  f_snapshot : Obs.snapshot;
  f_prev : Obs.snapshot option;
}

val poll : t -> frame
(** Scrape a snapshot and pair it with the previous poll so the renderer
    can show per-second rates.
    @raise Failure on an unexpected reply or closed connection. *)

val render : frame -> string
(** A plain-text dashboard: headline totals, per-second rates, latency
    percentiles ({!Obs.histogram_quantile}) and per-mobile replication
    lag. Ends with a newline. *)
