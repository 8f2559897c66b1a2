module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Engine = Dangers_sim.Engine
module Metrics = Dangers_sim.Metrics
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Executor = Dangers_txn.Executor
module Lock_table = Dangers_lock.Lock_table
module Rng = Dangers_util.Rng

type master_assignment = Round_robin | Datacycle of int

type slave_update = { oid : Oid.t; value : float; stamp : Timestamp.t }

type t = {
  common : Common.base;
  master_executor : Executor.t; (* the shared master lock space *)
  mutable network : slave_update list Network.t option;
  assignment : master_assignment;
}

let base t = t.common

let master_of t oid =
  match t.assignment with
  | Round_robin -> Oid.to_int oid mod t.common.Common.params.Params.nodes
  | Datacycle node -> node

let network t =
  match t.network with Some network -> network | None -> assert false

(* One slave transaction per remote node (Figure 1): background
   housekeeping (§5) applied on delivery, stale updates discarded by the
   Thomas write rule. *)
let deliver t ~src:_ ~dst (updates : slave_update list) =
  let common = t.common in
  Metrics.incr common.Common.stats.Repl_stats.replica_txns;
  List.iter
    (fun u ->
      Timestamp.Clock.witness common.Common.clocks.(dst) u.stamp;
      match
        Fstore.apply_if_newer common.Common.stores.(dst) u.oid u.value u.stamp
      with
      | `Applied -> Metrics.incr common.Common.stats.Repl_stats.replica_applied
      | `Stale -> Metrics.incr common.Common.stats.Repl_stats.stale_discards)
    updates

let master_commit t ~origin ops =
  let common = t.common in
  let updates =
    List.filter_map
      (fun op ->
        if not (Op.is_update op) then None
        else begin
          let oid = Op.oid op in
          let m = master_of t oid in
          let store = common.Common.stores.(m) in
          let current = Fstore.read store oid in
          let read oid' = Fstore.read common.Common.stores.(master_of t oid') oid' in
          let value = Op.apply ~read ~current op in
          let stamp = Timestamp.Clock.tick common.Common.clocks.(m) in
          Fstore.write store oid value stamp;
          Some (m, { oid; value; stamp })
        end)
      ops
  in
  (* The originating node broadcasts one slave transaction per other node
     carrying the updates that node does not master; its own replica it
     refreshes directly (it just read the master copies). *)
  for dst = 0 to common.Common.params.Params.nodes - 1 do
    let relevant =
      List.filter_map (fun (m, u) -> if m <> dst then Some u else None) updates
    in
    if relevant <> [] then begin
      if dst = origin then deliver t ~src:origin ~dst relevant
      else Network.send (network t) ~src:origin ~dst relevant
    end
  done

let submit t ~node ops =
  let common = t.common in
  (* Reads take S locks: the read-lock RPCs to the master. *)
  let steps = Executor.steps_of_ops ops in
  Executor.run t.master_executor ~steps:(fun () -> steps)
    ~on_commit:(fun ~started ->
      master_commit t ~origin:node ops;
      Common.commit_duration common ~started)

let create ?obs ?profile ?initial_value ?(delay = Delay.Zero)
    ?(master_assignment = Round_robin) params ~seed =
  (match master_assignment with
  | Datacycle node when node < 0 || node >= params.Params.nodes ->
      invalid_arg "Lazy_master.create: Datacycle master out of range"
  | Datacycle _ | Round_robin -> ());
  let common = Common.make ?obs ?profile ?initial_value params ~seed in
  let obs = common.Common.obs in
  let master_executor =
    Common.executor common
      ~locks:(Lock_table.create ?obs ())
      ~retry_rng:(Rng.split common.Common.rng)
  in
  let t = { common; master_executor; network = None; assignment = master_assignment } in
  t.network <-
    Some
      (Network.create ?obs ~clock:common.Common.clock
         ~rng:(Rng.split common.Common.rng) ~delay ~nodes:params.Params.nodes
         ~deliver:(fun ~src ~dst u -> deliver t ~src ~dst u) ());
  t

let start t = Common.start_generators t.common ~submit:(fun ~node ops -> submit t ~node ops)
let stop_load t = Common.stop_generators t.common

let summary t = Common.summary ~scheme:"lazy-master" t.common
