(** Prometheus text-exposition (version 0.0.4) over {!Metrics.snapshot}.

    Dependency-free: the encoder walks the already-sorted snapshot lists
    and prints one [# TYPE] comment plus the samples for each metric
    family. Counters and gauges map directly; a histogram becomes the
    conventional cumulative [_bucket{le="..."}] series (overflow under
    [le="+Inf"]) plus [_sum] and [_count]. The snapshot's
    [s_warnings_total] is exposed as the [warnings_total] counter; phase
    profiles have no Prometheus shape and are skipped.

    Registry names such as [scheme.commits_total] use characters outside
    the Prometheus name alphabet; {!sanitize_metric_name} folds them to
    ['_'] (a leading digit gets a ['_'] prefix). Two distinct registry
    names that collide after sanitisation get ["_2"], ["_3"], ...
    suffixes in snapshot (alphabetical) order, so the exposition never
    emits a duplicate family. *)

val sanitize_metric_name : string -> string
(** Fold to the Prometheus name alphabet [[a-zA-Z0-9_:]], prefixing ['_']
    if the result would start with a digit; [""] becomes ["_"]. *)

val escape_label_value : string -> string
(** Backslash-escape backslashes, double quotes and newlines for a quoted
    label value. *)

val escape_help : string -> string
(** Backslash-escape backslashes and newlines for a [# HELP] line. *)

val of_snapshot : Metrics.snapshot -> string
(** The full exposition, one family per metric, [# TYPE] first. The text
    ends with a newline as the format requires. *)

val lint : string -> (int, string) result
(** Format check over an exposition: every line must be a comment or a
    valid sample ([name{labels} value]), names must fit the alphabet,
    a family may be [# TYPE]-declared at most once, histogram bucket
    series must be cumulative and agree with their [_count]. Returns the
    number of samples, or the first violation. *)
