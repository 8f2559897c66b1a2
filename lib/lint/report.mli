(** Result of one lint run, renderable as text or dangers/lint/v3 JSON. *)

type t = {
  rules : string list;  (** rule ids that ran *)
  sources : int;  (** compilation units analyzed *)
  findings : Finding.t list;  (** unsuppressed findings, sorted *)
  suppressed : int;  (** findings silenced by [@lint.allow] *)
  unreadable : string list;  (** cmt files that failed to load *)
}

val schema_id : string
(** ["dangers/lint/v3"] *)

val errors : t -> int
val warnings : t -> int

val clean : t -> bool
(** No findings and no unreadable cmts. *)

val exit_code : ?fail_on:Finding.severity -> t -> int
(** 0 when nothing at or above [fail_on] remains and every cmt was
    readable, 1 otherwise. The default [fail_on:Warning] fails on any
    finding; [fail_on:Error] lets warnings through (the [--fail-on error]
    CI gate). *)

val to_json : t -> Dangers_obs.Json.t
val pp : Format.formatter -> t -> unit
