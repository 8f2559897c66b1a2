(* E2 — Equations (6)-(8): how eager replication inflates transactions.
   The model columns come straight from the equations; the measured columns
   come from uncontended simulator runs (duration) and from the generator
   load (commit rate), confirming the simulator embodies the model's
   transaction shape. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Eager = Dangers_analytic.Eager
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with db_size = 4000; tps = 5.; actions = 4 }

let experiment =
  {
    Experiment.id = "E2";
    title = "Equations (6)-(8): eager transaction growth with nodes";
    paper_ref = "Section 3, equations (6)-(8)";
    run =
      (fun ~quick ~seed ->
        let nodes_values = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
        let span = if quick then 20. else 60. in
        let table =
          Table.create
            ~caption:"Eager growth (TPS=5/node, Actions=4, DB=4000)"
            [
              Table.column "Nodes";
              Table.column "txn size";
              Table.column "duration model (s)";
              Table.column "duration measured (s)";
              Table.column "total txns (eq 7)";
              Table.column "actions/s (eq 8)";
              Table.column "commits/s measured";
            ]
        in
        let points =
          List.map
            (fun nodes ->
              let params = { base with nodes } in
              let summary = Scheme.run_named "eager-group" (Scheme.spec params) ~seed ~warmup:5. ~span in
              Table.add_row table
                [
                  Table.cell_int nodes;
                  Table.cell_float ~digits:0 (Eager.transaction_size params);
                  Table.cell_float ~digits:3 (Eager.transaction_duration params);
                  Table.cell_float ~digits:3 summary.Repl_stats.mean_duration;
                  Table.cell_float ~digits:2 (Eager.total_transactions params);
                  Table.cell_float ~digits:0 (Eager.action_rate params);
                  Table.cell_float ~digits:1 summary.Repl_stats.commit_rate;
                ];
              (nodes, summary.Repl_stats.mean_duration))
            nodes_values
        in
        let d1 = List.assoc 1 points and d4 = List.assoc 4 points in
        ( [ table ],
          [
            Experiment.ratio "duration grows linearly: 4 nodes / 1 node"
              ~expected:4. ~tolerance:0.5 d4 d1;
          ],
          [
            "Commit rate stays at Nodes x TPS while each commit does Nodes \
             x Actions work: the update rate grows as N^2 (equation 8).";
          ] ));
  }
