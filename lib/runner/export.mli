(** Structured result export: sweep items as JSONL or CSV.

    Records encode with {!Dangers_obs.Json}, the codec shared with the
    trace and metrics exporters. Floats print with the shortest
    representation that parses back exactly, so a JSONL file
    round-trips: [to_jsonl (of_jsonl s) = s]. Non-finite floats (fitted
    exponents can be [nan]) are encoded as the strings ["nan"], ["inf"],
    ["-inf"]. *)

module Experiment = Dangers_experiments.Experiment
module Repl_stats = Dangers_replication.Repl_stats

(** {1 Export records}

    The flat, stable schema written to disk — presentation-only payload
    (tables) is dropped, findings and summaries are kept. *)

type record =
  | Experiment_record of {
      id : string;
      title : string;
      seed : int;
      findings : Experiment.finding list;
      notes : string list;
    }
  | Scheme_record of {
      scheme : string;
      seed : int;
      summary : Repl_stats.summary;
      diagnostics : (string * float) list;
    }

val record_of_item : Sweep.item -> record

val to_json : record -> Dangers_obs.Json.t
val of_json : Dangers_obs.Json.t -> record
(** @raise Dangers_obs.Json.Parse_error on a JSON value that is not a
    record. *)

(** {1 Files} *)

val to_jsonl : record list -> string
(** One record per line, trailing newline. *)

val of_jsonl : string -> record list
(** Blank lines are skipped. @raise Dangers_obs.Json.Parse_error on a
    bad line. *)

val to_csv : record list -> string
(** One row per experiment finding ([kind=finding]) and per scheme-run
    summary ([kind=summary]), under a single wide header; cells that do
    not apply to the row's kind are empty. Notes are JSONL-only. *)
