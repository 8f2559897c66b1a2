(* F1 — Figure 1: a replicated transaction does N times as much work.
   One uncontended transaction per configuration: eager runs one big
   transaction of Actions x Nodes steps; lazy runs a root of Actions steps
   plus N-1 replica-update transactions. We measure durations and
   transaction counts and compare them with the figure's arithmetic. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Eager = Dangers_analytic.Eager
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Metrics = Dangers_sim.Metrics
module Stats = Dangers_util.Stats
module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Eager_impl = Dangers_replication.Eager_impl
module Lazy_group = Dangers_replication.Lazy_group

let params_for nodes =
  { Params.default with nodes; db_size = 100; tps = 0.001; actions = 3 }

let ops = [ Op.Assign (Oid.of_int 0, 1.); Op.Assign (Oid.of_int 1, 2.);
            Op.Assign (Oid.of_int 2, 3.) ]

let eager_duration ~nodes ~seed =
  let sys = Eager_impl.create Eager_impl.Group (params_for nodes) ~seed in
  Eager_impl.submit sys ~node:0 ops;
  Common.drain (Eager_impl.base sys);
  Stats.mean (Metrics.txn_duration (Eager_impl.base sys).Common.metrics)

let lazy_counts ~nodes ~seed =
  let sys = Lazy_group.create (params_for nodes) ~seed in
  Lazy_group.submit sys ~node:0 ops;
  Common.drain (Lazy_group.base sys);
  let base = Lazy_group.base sys in
  let root_duration = Stats.mean (Metrics.txn_duration base.Common.metrics) in
  (root_duration, Metrics.total base.Common.stats.Repl_stats.replica_txns)

let experiment =
  {
    Experiment.id = "F1";
    title = "Figure 1: eager vs lazy work per replicated transaction";
    paper_ref = "Figure 1, section 2";
    run =
      (fun ~quick:_ ~seed ->
        let table =
          Table.create
            ~caption:"One 3-action transaction, uncontended (Action_Time 10ms)"
            [
              Table.column ~align:Table.Left "configuration";
              Table.column "txn size (model)";
              Table.column "duration model (s)";
              Table.column "duration measured (s)";
              Table.column "transactions run";
            ]
        in
        let add_eager nodes =
          let p = params_for nodes in
          let measured = eager_duration ~nodes ~seed in
          let model = Eager.transaction_duration p in
          Table.add_row table
            [
              Printf.sprintf "eager, %d node%s" nodes (if nodes = 1 then "" else "s");
              Table.cell_float ~digits:0 (Eager.transaction_size p);
              Table.cell_float ~digits:3 model;
              Table.cell_float ~digits:3 measured;
              "1";
            ];
          Experiment.near
            (Printf.sprintf "eager duration at %d nodes" nodes)
            ~expected:model ~tolerance:0.001 measured
        in
        let eager_1 = add_eager 1 in
        let eager_3 = add_eager 3 in
        let root_duration, replica_txns = lazy_counts ~nodes:3 ~seed in
        Table.add_row table
          [
            "lazy, 3 nodes (root)";
            "3";
            Table.cell_float ~digits:3 0.03;
            Table.cell_float ~digits:3 root_duration;
            Printf.sprintf "%d (1 root + %d lazy)" (1 + replica_txns) replica_txns;
          ];
        ( [ table ],
          [
            eager_1;
            eager_3;
            Experiment.near "lazy root duration" ~expected:0.03 ~tolerance:0.001
              root_duration;
            Experiment.near "lazy replica-update transactions at 3 nodes"
              ~expected:2. ~tolerance:0. (float_of_int replica_txns);
          ],
          [
            "Eager: one transaction, N times the size and duration. Lazy: \
             same total work split into 1 root + (N-1) asynchronous \
             replica-update transactions.";
          ] ));
  }
