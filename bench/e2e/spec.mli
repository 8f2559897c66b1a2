(** [BENCHMARK.json]: the workload names, the metrics every run must
    emit (with units and direction), and the regression bounds. The file
    is the single source of metric names and units; the benchmark code
    only computes values. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only: tolerated worsening share *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

val load : string -> t
(** @raise Dangers_obs.Json.Parse_error on a malformed file. *)

val worsening : better -> base:float -> cand:float -> float
(** How much worse [cand] is than [base], as a share of [base]: positive
    when worse, negative when better, 0 when [base] is 0. *)

val regressed : metric -> base:float -> cand:float -> bool
(** [worsening > bound]; never for an unbounded metric. *)
