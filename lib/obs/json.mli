(** Dependency-free JSON: the codec shared by every exporter in the tree.

    Deliberately tiny (the container bakes in no JSON library) but complete
    for the subset we emit: objects, arrays, strings, bools, null and
    doubles. Floats print with the shortest representation that parses back
    exactly, so a JSONL file round-trips. Non-finite floats (fitted
    exponents can be [nan]) are encoded as the strings ["nan"], ["inf"],
    ["-inf"] by {!of_float}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse_error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Parse_error} with a formatted message. *)

val to_string : t -> string
(** Single-line (JSONL-safe) rendering. *)

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val float_repr : float -> string
(** Shortest decimal that parses back to the same double. *)

val of_float : float -> t
(** [Num] for finite floats, [Str "nan"]/[Str "inf"]/[Str "-inf"] else. *)

val to_float : t -> float
(** Inverse of {!of_float}. @raise Parse_error otherwise. *)

val int_ : int -> t

(** {1 Accessors}

    All raise {!Parse_error} on a shape mismatch, so decoders read as a
    straight-line description of the expected schema. *)

val member : string -> t -> t
val member_opt : string -> t -> t option
val string_of : t -> string
val int_of : t -> int
val list_of : t -> t list
