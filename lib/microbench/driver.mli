(** Entry point of [dangers bench]. *)

val main :
  quick:bool ->
  out:string option ->
  input:string option ->
  baseline:string option ->
  threshold:float ->
  unit ->
  int
(** Returns a process exit code. With [input], results are loaded from
    that file instead of running the suite (for offline comparison);
    otherwise the suite runs and is saved to [out] if given. With
    [baseline], the results are diffed against the baseline file at
    [threshold] (a fraction: 0.2 flags >20% mean-time regressions) and
    the exit code is 1 when the check fails. *)
