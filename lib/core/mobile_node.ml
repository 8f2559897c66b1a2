module Oid = Dangers_storage.Oid
module Op = Dangers_txn.Op
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp

type t = {
  node : int;
  master : Fstore.t;
  tentative : Fstore.t;
  clock : Timestamp.Clock.t;
  mutable queue_rev : Tentative.t list;
  mutable requeued : Tentative.t list;
  mutable next_seq : int;
  mutable ran : int;
}

let create ~node ~db_size ~initial_value =
  {
    node;
    master = Fstore.create ~db_size ~init:initial_value;
    tentative = Fstore.create ~db_size ~init:initial_value;
    clock = Timestamp.Clock.create ~node;
    queue_rev = [];
    requeued = [];
    next_seq = 0;
    ran = 0;
  }

let node t = t.node
let master_store t = t.master
let tentative_store t = t.tentative

let run_tentative t ~ops ~acceptance ~now =
  let results =
    List.filter_map
      (fun op ->
        if not (Op.is_update op) then None
        else begin
          let oid = Op.oid op in
          let current = Fstore.read t.tentative oid in
          let value = Op.apply ~read:(Fstore.read t.tentative) ~current op in
          Fstore.write t.tentative oid value (Timestamp.Clock.tick t.clock);
          Some (oid, value)
        end)
      ops
  in
  let txn =
    Tentative.make ~seq:t.next_seq ~origin:t.node ~ops ~acceptance
      ~tentative_results:results ~committed_at:now
  in
  t.next_seq <- t.next_seq + 1;
  t.ran <- t.ran + 1;
  t.queue_rev <- txn :: t.queue_rev;
  txn

let pending t = t.requeued @ List.rev t.queue_rev
let pending_count t = List.length t.requeued + List.length t.queue_rev

let take_pending t =
  let all = pending t in
  t.queue_rev <- [];
  t.requeued <- [];
  all

let requeue_front t txns = t.requeued <- txns @ t.requeued

let apply_master_update t oid value stamp =
  Timestamp.Clock.witness t.clock stamp;
  let result = Fstore.apply_if_newer t.master oid value stamp in
  (* While no tentative work is pending, the tentative version tracks the
     master version; pending tentative writes take precedence locally. *)
  if pending_count t = 0 then
    ignore (Fstore.apply_if_newer t.tentative oid value stamp);
  result

let refresh_from t base =
  Fstore.overwrite_from t.master ~src:base;
  Fstore.overwrite_from t.tentative ~src:base;
  Fstore.iter base (fun _ _ stamp -> Timestamp.Clock.witness t.clock stamp)

let tentative_commits t = t.ran

let diverged t = not (Fstore.content_equal t.master t.tentative)
