(** Hash table keyed by [int].

    The polymorphic [Hashtbl] hashes through [caml_hash] and compares keys
    with [compare_val], two C calls per lookup. This instance hashes with
    one multiply and shift and compares with [Int.equal], so a lookup on
    the simulator's lock and transaction tables stays in OCaml code. *)

include Hashtbl.S with type key = int
