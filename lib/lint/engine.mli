(** Orchestrates a lint run in two phases: load cmts, run the per-unit
    rules over each typedtree, then — when any whole-program rule is
    selected — summarize every unit, build the call graph, and run the
    program rules over it. [@lint.allow] suppression comes from the
    typedtrees in both phases. *)

val default_build_dir : unit -> string
(** ["_build/default"] when it exists under the cwd, ["."] otherwise —
    so the CLI works both from the repo root and from inside the build
    tree (the [@lint] alias). *)

val check_sources :
  ?all_files:bool ->
  rules:Rule.t list ->
  Loader.source list ->
  Finding.t list * int
(** Run [rules] (both phases) over already-loaded sources; returns
    (sorted unsuppressed findings, suppressed count). [all_files]
    ignores each rule's [in_scope] filter — used by tests and fixture
    runs. *)

val run :
  ?all_files:bool ->
  rules:Rule.t list ->
  build_dir:string ->
  prefixes:string list ->
  unit ->
  Report.t
(** Load the cmts under [build_dir] and {!check_sources} them. *)
