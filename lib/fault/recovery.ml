module Fstore = Dangers_storage.Store.Fstore
module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Update_log = Dangers_storage.Update_log

type entry = { oid : Oid.t; value : float; stamp : Timestamp.t }

type t = {
  node : int;
  initial_value : float;
  store : Fstore.t;
  journal : entry Update_log.t;
  anchor : Update_log.cursor;  (** never read: pins full retention *)
  mutable journaling : bool;  (** off while recovery itself writes *)
  mutable crash_count : int;
  mutable violations_rev : string list;
}

let attach ~node ~initial_value store =
  let journal = Update_log.create () in
  let t =
    {
      node;
      initial_value;
      store;
      journal;
      anchor = Update_log.register journal;
      journaling = true;
      crash_count = 0;
      violations_rev = [];
    }
  in
  Fstore.on_write store (fun oid value stamp ->
      if t.journaling then Update_log.append journal { oid; value; stamp });
  t

(* The full journal, oldest first, without consuming the anchor. *)
let entries t =
  let cursor = Update_log.register_at_start t.journal in
  let all = Update_log.read_new t.journal cursor in
  Update_log.unregister t.journal cursor;
  all

let replay_onto t store =
  List.iter (fun e -> Fstore.write store e.oid e.value e.stamp) (entries t)

let record t fmt = Format.kasprintf (fun msg ->
    t.violations_rev <- msg :: t.violations_rev) fmt

let crash t =
  t.crash_count <- t.crash_count + 1;
  let shadow =
    Fstore.create ~db_size:(Fstore.db_size t.store) ~init:t.initial_value
  in
  replay_onto t shadow;
  (match Fstore.divergent_oids shadow t.store with
  | [] -> ()
  | first :: _ as oids ->
      record t
        "node %d: journal incomplete at crash %d — %d object(s) not \
         reproduced (first: %d)"
        t.node t.crash_count (List.length oids)
        (Oid.to_int first))

let restart t =
  let snapshot = Fstore.copy t.store in
  t.journaling <- false;
  Fstore.iter snapshot (fun oid _ _ ->
      Fstore.write t.store oid t.initial_value Timestamp.zero);
  replay_onto t t.store;
  t.journaling <- true;
  match Fstore.divergent_oids snapshot t.store with
  | [] -> ()
  | first :: _ as oids ->
      record t
        "node %d: recovery replay after crash %d missed %d object(s) \
         (first: %d)"
        t.node t.crash_count (List.length oids)
        (Oid.to_int first)

let crashes t = t.crash_count
let journal_length t = Update_log.length t.journal
let violations t = List.rev t.violations_rev

(* The anchor is write-only state: it exists to pin journal retention. *)
let _ = fun t -> t.anchor
