(** A lint rule: an id, documentation, a source-path scope, and a check —
    either over one compilation unit's typedtree (phase 1) or over the
    whole-program call graph assembled from every unit's summary
    (phase 2).

    Checks are pure — suppression ([@lint.allow]) is applied by
    {!Engine} on top of whatever a check reports. Program findings are
    filtered by [in_scope] on each finding's file. *)

type check =
  | Unit_check of (file:string -> Typedtree.structure -> Finding.t list)
  | Program_check of (Callgraph.t -> Finding.t list)

type t = {
  id : string;  (** short stable id, e.g. ["D1"] *)
  title : string;  (** one-line summary for [--list] *)
  rationale : string;  (** why violating this breaks the determinism story *)
  in_scope : string -> bool;  (** does the rule apply to this source path? *)
  check : check;
}

(** {2 Helpers shared by rule implementations} *)

val ident_name : Path.t -> string
(** [Path.name] with a leading ["Stdlib."] stripped, so [Random.self_init]
    and [Stdlib.Random.self_init] compare equal. *)

val is_stdlib : Path.t -> bool
(** True for paths rooted in the [Stdlib] unit — distinguishes the
    polymorphic [compare] from a module's own [compare]. *)

val head_ident : Typedtree.expression -> string option
(** The normalized name of the identifier in function position, looking
    through nested partial applications: [head_ident (f x y)] is [f]'s
    name when [f] is an identifier. *)

val iter_exprs : Typedtree.structure -> (Typedtree.expression -> unit) -> unit
(** Visit every expression in the structure, depth first. *)

val path_has_prefix : string list -> string -> bool
(** [path_has_prefix prefixes path]: does [path] start with any prefix? *)

val basename_in : string list -> string -> bool
(** [basename_in names path]: is [Filename.basename path] one of [names]? *)
