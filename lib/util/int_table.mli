(** Hash table keyed by [int], open addressing.

    One flat array of keys and one of values, probed linearly from a
    multiply-and-shift hash; deletion shifts the displaced entries back
    instead of leaving tombstones, so a probe never walks over dead slots.
    Every slot that holds no binding holds the table's {e filler} value,
    which {!get} also returns for an unbound key: a hot lookup compares
    the result with the filler ([==]) instead of matching an option.
    Lookups, replacements and removals allocate nothing; only growth
    (doubling once the table is half full) does. The table never shrinks,
    so its footprint is bounded by the most bindings it held at once.

    This replaces a [Hashtbl.Make] instance over [int], which allocated a
    bucket cell on every [add] and an option on every [find_opt].

    [min_int] marks an empty slot, so it is not a valid key: binding it
    raises [Invalid_argument]; looking it up finds nothing. *)

type 'a t

val create : filler:'a -> int -> 'a t
(** [create ~filler n] is an empty table sized for about [n] bindings.
    [filler] fills the empty slots and is {!get}'s answer for an unbound
    key; it is never returned as a binding. *)

val length : 'a t -> int
(** Number of bindings. *)

val get : 'a t -> int -> 'a
(** The value bound to the key, or the filler when it is unbound. *)

val mem : 'a t -> int -> bool

val add : 'a t -> int -> 'a -> unit
(** Bind an unbound key.
    @raise Invalid_argument if the key is already bound or is [min_int]. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its binding if it has one.
    @raise Invalid_argument if the key is [min_int]. *)

val remove : 'a t -> int -> unit
(** Unbind the key; no-op when it is unbound. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over the bindings in slot order, a deterministic function of the
    table's history. The table must not be changed during the fold. *)
