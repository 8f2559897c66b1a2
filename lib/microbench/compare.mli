(** Regression check between two benchmark result files.

    Benchmarks are matched by name; the verdict for each pair is the ratio
    of mean times [new /. old]. A ratio above [1 + threshold] is a
    regression, below [1 - threshold] an improvement, anything else
    stable. A benchmark present in the baseline but absent from the new
    run is tolerated — it is listed in [only_old], printed as [missing],
    and reported through the process-wide warn-once registry under the
    key ["bench.compare.missing"] — but it does not fail the check, so a
    trimmed quick run can still be compared against a full baseline.
    Gate on [only_old] directly if lost coverage must be fatal.

    Minor words per run are reported beside each pair of means but never
    judged: the verdict is the time's alone. *)

type change = {
  name : string;
  old_mean : float;
  new_mean : float;
  ratio : float;  (** [new_mean /. old_mean] *)
  words : (float * float) option;
      (** minor words per run, old and new; [None] unless both files
          record them *)
}

type report = {
  threshold : float;
  regressions : change list;
  improvements : change list;
  stable : change list;
  only_old : string list;  (** in the baseline, missing from the new run *)
  only_new : string list;
}

val diff : threshold:float -> Bench_file.t -> Bench_file.t -> report
(** [diff ~threshold old new]. [threshold] is a fraction ([0.20] = 20%).
    @raise Invalid_argument if [threshold <= 0]. *)

val ok : report -> bool
(** No regressions. Benchmarks only in the baseline do not fail. *)

val print : Format.formatter -> report -> unit
