module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Engine = Dangers_sim.Engine
module Metrics = Dangers_sim.Metrics
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Executor = Dangers_txn.Executor
module Lock_table = Dangers_lock.Lock_table
module Rng = Dangers_util.Rng

(* What a root commit sends each peer: its updates and the lock steps of
   the replica transaction that applies them, built once at the root and
   shared by every receiver and every retry (steps are immutable). *)
type replica_txn = {
  updates : Reconcile.update list;
  steps : unit -> Executor.step list;
}

type t = {
  common : Common.base;
  (* One local lock space per node, with two executors over it: one for
     root transactions, one for replica transactions, whose restarts are
     counted apart. *)
  executors : Executor.t array;
  replica_executors : Executor.t array;
  mutable network : replica_txn Network.t option;
  rule : Reconcile.rule;
  expected : float array; (* initial_value + committed increment deltas *)
  mutable fleet : Connectivity.fleet option;
}

let base t = t.common
let rule t = t.rule

let network t =
  match t.network with
  | Some network -> network
  | None -> assert false (* set at the end of [create] *)

let max_stamp a b = if Timestamp.newer a ~than:b then a else b

(* Apply one incoming replica update at [dst], counting §4's outcomes. *)
let apply_update t ~dst (u : Reconcile.update) =
  let common = t.common in
  let stats = common.Common.stats in
  let store = common.Common.stores.(dst) in
  Timestamp.Clock.witness common.Common.clocks.(dst) u.Reconcile.stamp;
  let current_stamp = Fstore.stamp store u.Reconcile.oid in
  let chain_intact = Timestamp.equal current_stamp u.Reconcile.old_stamp in
  let is_additive_delta =
    match (t.rule, u.Reconcile.delta) with
    | Reconcile.Additive, Some _ -> true
    | Reconcile.Additive, None -> false
    | ( ( Reconcile.Ignore | Reconcile.Timestamp_priority
        | Reconcile.Site_priority _ | Reconcile.Value_priority _
        | Reconcile.Custom _ ),
        _ ) -> false
  in
  if is_additive_delta then begin
    (* Commutative discipline: always merge the delta, never overwrite with
       the absolute value — any application order yields the same sum. *)
    if not chain_intact then Metrics.incr stats.Repl_stats.reconciliations;
    let delta = match u.Reconcile.delta with Some d -> d | None -> assert false in
    let current = Fstore.read store u.Reconcile.oid in
    Fstore.write store u.Reconcile.oid (current +. delta)
      (max_stamp current_stamp u.Reconcile.stamp);
    Metrics.incr stats.Repl_stats.replica_applied
  end
  else if chain_intact then begin
    Fstore.write store u.Reconcile.oid u.Reconcile.value u.Reconcile.stamp;
    Metrics.incr stats.Repl_stats.replica_applied
  end
  else begin
    Metrics.incr stats.Repl_stats.reconciliations;
    let current_value = Fstore.read store u.Reconcile.oid in
    let stamp' = max_stamp current_stamp u.Reconcile.stamp in
    match Reconcile.resolve t.rule ~current_value ~current_stamp u with
    | Reconcile.Keep_current ->
        Fstore.write store u.Reconcile.oid current_value stamp'
    | Reconcile.Take_incoming ->
        Fstore.write store u.Reconcile.oid u.Reconcile.value stamp'
    | Reconcile.Merge value -> Fstore.write store u.Reconcile.oid value stamp'
    | Reconcile.Drop -> () (* failed reconciliation: the chain stays broken *)
  end

(* A replica-update transaction: the model charges it the same Actions x
   Action_Time work as the root (equation 7's lazy accounting). Local
   deadlocks restart it without user impact. *)
let deliver t ~src:_ ~dst { updates; steps } =
  Executor.run t.replica_executors.(dst) ~steps ~on_commit:(fun ~started:_ ->
      Metrics.incr t.common.Common.stats.Repl_stats.replica_txns;
      List.iter (apply_update t ~dst) updates)

let root_commit t ~node ops =
  let common = t.common in
  let store = common.Common.stores.(node) in
  let clock = common.Common.clocks.(node) in
  let updates =
    List.filter_map
      (fun op ->
        if not (Op.is_update op) then None
        else begin
          let oid = Op.oid op in
          let current = Fstore.read store oid in
          let value = Op.apply ~read:(Fstore.read store) ~current op in
          let old_stamp = Fstore.stamp store oid in
          let stamp = Timestamp.Clock.tick clock in
          Fstore.write store oid value stamp;
          let delta =
            match op with
            | Op.Increment (_, d) ->
                t.expected.(Oid.to_int oid) <- t.expected.(Oid.to_int oid) +. d;
                Some d
            | Op.Assign _ | Op.Read _ | Op.Assign_from _ -> None
          in
          Some
            {
              Reconcile.oid;
              old_stamp;
              value;
              delta;
              stamp;
              origin = node;
            }
        end)
      ops
  in
  if updates <> [] then begin
    let steps =
      List.map
        (fun (u : Reconcile.update) ->
          Executor.update_step ~resource:(Oid.to_int u.Reconcile.oid))
        updates
    in
    Network.broadcast (network t) ~src:node
      { updates; steps = (fun () -> steps) }
  end

let submit t ~node ops =
  let common = t.common in
  let steps = Executor.steps_of_ops ops in
  Executor.run t.executors.(node) ~steps:(fun () -> steps)
    ~on_commit:(fun ~started ->
      root_commit t ~node ops;
      Common.commit_duration common ~started)

let create ?obs ?profile ?initial_value ?(rule = Reconcile.Timestamp_priority)
    ?(delay = Delay.Zero) ?faults ?mobility ?mobile_nodes params ~seed =
  let common = Common.make ?obs ?profile ?initial_value params ~seed in
  let obs = common.Common.obs in
  let stats = common.Common.stats in
  let locks = Array.init params.Params.nodes (fun _ -> Lock_table.create ?obs ()) in
  let retry_rng = Rng.split common.Common.rng in
  let init_value = match initial_value with Some v -> v | None -> 0. in
  let t =
    {
      common;
      executors = Array.map (fun locks -> Common.executor common ~locks ~retry_rng) locks;
      replica_executors =
        Array.map
          (fun locks ->
            Common.executor common ~locks ~retry_rng ~on_restart:(fun () ->
                Metrics.incr stats.Repl_stats.replica_restarts))
          locks;
      network = None;
      rule;
      expected = Array.make params.Params.db_size init_value;
      fleet = None;
    }
  in
  let network =
    Network.create ?obs ?faults ~clock:common.Common.clock
      ~rng:(Rng.split common.Common.rng) ~delay ~nodes:params.Params.nodes
      ~deliver:(fun ~src ~dst updates -> deliver t ~src ~dst updates) ()
  in
  t.network <- Some network;
  t.fleet <-
    Option.map
      (fun spec ->
        Connectivity.fleet ~clock:common.Common.clock ~rng:common.Common.rng
          ~spec
          ~nodes:
            (match mobile_nodes with
            | Some nodes -> nodes
            | None -> List.init params.Params.nodes Fun.id)
          ~set_connected:(Network.set_connected network))
      mobility;
  t

let start t = Common.start_generators t.common ~submit:(fun ~node ops -> submit t ~node ops)
let stop_load t = Common.stop_generators t.common

let summary t = Common.summary ~scheme:"lazy-group" t.common

let expected_sum t oid = t.expected.(Oid.to_int oid)

let divergence t =
  let stores = t.common.Common.stores in
  let reference = stores.(0) in
  let count = ref 0 in
  Array.iteri
    (fun node store ->
      if node > 0 then
        Fstore.iter store (fun oid value _ ->
            if not (Float.equal value (Fstore.read reference oid)) then incr count))
    stores;
  !count

let is_connected t ~node = Network.is_connected (network t) ~node
let set_node_connected t ~node state = Network.set_connected (network t) ~node state
let flush_node t ~node = Network.flush_node (network t) ~node

let force_sync t =
  Option.iter Connectivity.stop_fleet t.fleet;
  let n = t.common.Common.params.Params.nodes in
  for node = 0 to n - 1 do
    Network.set_connected (network t) ~node true
  done;
  Common.drain t.common
