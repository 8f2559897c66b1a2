(* T1 — Table 1: the replication taxonomy. For each strategy we submit a
   fixed batch of non-conflicting user transactions, drain, and count the
   transactions the system actually ran: eager = 1 per user update, lazy =
   N (root + one replica-update transaction per remote node), two-tier =
   N + 1 (tentative + base + lazy updates). Ownership comes from the
   model. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Model = Dangers_analytic.Model
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Metrics = Dangers_sim.Metrics
module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Eager_impl = Dangers_replication.Eager_impl
module Lazy_group = Dangers_replication.Lazy_group
module Lazy_master = Dangers_replication.Lazy_master
module Two_tier = Dangers_core.Two_tier
module Connectivity = Dangers_net.Connectivity

let nodes = 3
let batch = 20

let params =
  { Params.default with nodes; db_size = 240; tps = 0.001; actions = 2 }

(* Transaction i updates two objects mastered at the same node and disjoint
   from every other transaction, so there is no contention and no
   restarts. *)
let ops_for i =
  [ Op.Increment (Oid.of_int (6 * i), 1.); Op.Increment (Oid.of_int ((6 * i) + 3), 1.) ]

let count_txns base =
  let s = base.Common.stats in
  float_of_int
    (Metrics.total s.Repl_stats.commits + Metrics.total s.Repl_stats.restarts
    + Metrics.total s.Repl_stats.replica_txns
    + Metrics.total s.Repl_stats.tentative_commits)
  /. float_of_int batch

let measure_eager ownership ~seed =
  let sys = Eager_impl.create ownership params ~seed in
  for i = 0 to batch - 1 do
    Eager_impl.submit sys ~node:(i mod nodes) (ops_for i)
  done;
  Common.drain (Eager_impl.base sys);
  count_txns (Eager_impl.base sys)

let measure_lazy_group ~seed =
  let sys = Lazy_group.create params ~seed in
  for i = 0 to batch - 1 do
    Lazy_group.submit sys ~node:(i mod nodes) (ops_for i)
  done;
  Common.drain (Lazy_group.base sys);
  count_txns (Lazy_group.base sys)

let measure_lazy_master ~seed =
  let sys = Lazy_master.create params ~seed in
  for i = 0 to batch - 1 do
    Lazy_master.submit sys ~node:(i mod nodes) (ops_for i)
  done;
  Common.drain (Lazy_master.base sys);
  count_txns (Lazy_master.base sys)

let measure_two_tier ~seed =
  (* One mobile, disconnected: every transaction is tentative, replayed at
     the sync. *)
  let sys =
    Two_tier.create ~base_nodes:(nodes - 1)
      ~mobility:
        {
          Connectivity.time_between_disconnects = 5.;
          disconnected_time = 1_000_000.;
          distribution = Connectivity.Fixed;
          start_connected = true;
        }
      params ~seed
  in
  let clock = (Two_tier.base sys).Common.clock in
  Dangers_runtime.Clock.run clock ~until:1_000_010.;
  let mobile = nodes - 1 in
  (* Both objects mastered at base node 0 (owner = oid mod base_nodes), so
     the batch matches Table 1's one-object-owner accounting. *)
  for i = 0 to batch - 1 do
    Two_tier.submit sys ~node:mobile
      [
        Op.Increment (Oid.of_int (6 * i), 1.);
        Op.Increment (Oid.of_int ((6 * i) + 2), 1.);
      ]
  done;
  Two_tier.quiesce_and_sync sys;
  count_txns (Two_tier.base sys)

let experiment =
  {
    Experiment.id = "T1";
    title = "Table 1: transactions per user update by strategy";
    paper_ref = "Table 1, section 2";
    run =
      (fun ~quick:_ ~seed ->
        let table =
          Table.create
            ~caption:
              (Printf.sprintf
                 "Taxonomy at N = %d nodes: transactions run per user update"
                 nodes)
            [
              Table.column ~align:Table.Left "strategy";
              Table.column "model txns/update";
              Table.column "measured";
              Table.column "object owners (model)";
            ]
        in
        let predictions scheme = Model.predict scheme params in
        let add scheme measured =
          let p = predictions scheme in
          Table.add_row table
            [
              Model.scheme_name scheme;
              Table.cell_float ~digits:0 p.Model.transactions_per_user_update;
              Table.cell_float ~digits:2 measured;
              Table.cell_float ~digits:0 p.Model.object_owners;
            ];
          (Model.scheme_name scheme, p.Model.transactions_per_user_update, measured)
        in
        let rows =
          [
            add Model.Eager_group (measure_eager Eager_impl.Group ~seed);
            add Model.Eager_master (measure_eager Eager_impl.Master ~seed);
            add Model.Lazy_group (measure_lazy_group ~seed);
            add Model.Lazy_master (measure_lazy_master ~seed);
            add Model.Two_tier (measure_two_tier ~seed);
          ]
        in
        ( [ table ],
          List.map
            (fun (name, expected, actual) ->
              Experiment.near (name ^ " transactions per user update")
                ~expected ~tolerance:0.5 actual)
            rows,
          [
            "Measured = (user commits + restarts + replica-update \
             transactions + tentative transactions) / user updates, on a \
             contention-free batch.";
          ] ));
  }
