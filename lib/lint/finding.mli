(** One diagnostic produced by a lint rule. *)

type severity =
  | Error  (** fails the run under [--fail-on error] (the CI default) *)
  | Warning  (** fails only under [--fail-on warning] *)

type t = {
  rule : string;  (** rule id, e.g. ["D1"] *)
  severity : severity;
  file : string;  (** source path as recorded in the [.cmt] *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

val severity_to_string : severity -> string

val make :
  ?severity:severity ->
  rule:string ->
  file:string ->
  loc:Location.t ->
  message:string ->
  unit ->
  t
(** [severity] defaults to [Error]. *)

val at :
  ?severity:severity ->
  rule:string ->
  file:string ->
  line:int ->
  col:int ->
  message:string ->
  unit ->
  t
(** Build a finding from an explicit position — used by the summary-based
    rules, whose summaries carry plain line/column pairs rather than
    [Location.t]s. *)

val compare : t -> t -> int
(** Stable report order: by file, line, column, rule, message. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: severity \[rule\] message] — one line, compiler
    style. *)

val to_json : t -> Dangers_obs.Json.t
