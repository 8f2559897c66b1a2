(** Per-node durable write journal and crash recovery.

    Every store mutation is captured via
    {!Dangers_storage.Store.Fstore.on_write} into an append-only redo
    journal. The fault injector uses it to prove the store is recoverable
    at both ends of a crash:

    - {!crash} checks {e journal completeness}: folding the journal over a
      fresh database must reproduce the live store exactly, i.e. no
      mutation path escaped the log.
    - {!restart} performs {e recovery}: wipe the store back to its initial
      contents (the volatile loss) and replay the whole journal; the result
      must equal the state the store held right before the wipe.

    In-flight work that commits during the downtime (an executor
    transaction that started before the crash, eager writes from live
    nodes) keeps being journaled, so the restart round-trip covers it too —
    the store plays a durable disk image, and the journal proves it could
    be rebuilt from scratch at any moment.

    Violations are recorded, not raised, so the fuzzer can report them
    alongside the failing seed and plan. *)

module Fstore = Dangers_storage.Store.Fstore

type t

val attach : node:int -> initial_value:float -> Fstore.t -> t
(** Start journaling the store's writes. Call before any traffic: the
    journal must cover the store's whole mutation history. *)

val crash : t -> unit
(** Verify journal completeness against the live store. *)

val restart : t -> unit
(** Wipe to initial contents, replay the journal, and verify the store
    round-tripped to its pre-wipe state. *)

val crashes : t -> int
val journal_length : t -> int

val violations : t -> string list
(** Completeness / recovery failures, oldest first; empty when the journal
    faithfully captures and reproduces every mutation. *)
