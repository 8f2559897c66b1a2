(* E5 — Equation (14): lazy-group reconciliation. The paper equates the
   reconciliation rate with the eager wait rate (equation 10): transactions
   that would wait face reconciliation instead. We measure both faces in
   the lazy-group simulator: the lock-wait rate across all local lock
   spaces (the equation's quantity, cubic in N) and the operational
   dangerous-update rate (timestamp-chain mismatches actually submitted to
   a reconciliation rule). *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Lazy_group_eq = Dangers_analytic.Lazy_group
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with db_size = 400; tps = 5.; actions = 4 }

let experiment =
  {
    Experiment.id = "E5";
    title = "Equation (14): lazy-group reconciliation rises as Nodes^3";
    paper_ref = "Section 4, equation (14)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 300. in
        let nodes_values = if quick then [ 2; 4 ] else [ 2; 3; 4; 6 ] in
        let table =
          Table.create
            ~caption:
              "Lazy-group (TPS=5/node, Actions=4, DB=400), timestamp-priority \
               rule"
            [
              Table.column "Nodes";
              Table.column "eq14 rate model";
              Table.column "waits/s measured";
              Table.column "dangerous updates/s";
              Table.column "deadlocks/s (local)";
            ]
        in
        let points =
          List.map
            (fun nodes ->
              let params = { base with nodes } in
              let runs =
                Experiment.summaries "lazy-group" (Scheme.spec params) ~seeds
                  ~warmup:5. ~span
              in
              let waits = Experiment.mean (fun s -> s.Repl_stats.wait_rate) runs in
              let dangerous =
                Experiment.mean (fun s -> s.Repl_stats.reconciliation_rate) runs
              in
              let deadlocks =
                Experiment.mean (fun s -> s.Repl_stats.deadlock_rate) runs
              in
              Table.add_row table
                [
                  Table.cell_int nodes;
                  Table.cell_rate (Lazy_group_eq.reconciliation_rate params);
                  Table.cell_rate waits;
                  Table.cell_rate dangerous;
                  Table.cell_rate deadlocks;
                ];
              let n = float_of_int nodes in
              ((n, waits), (n, dangerous)))
            nodes_values
        in
        let waits, dangerous = List.split points in
        ( [ table ],
          [
            Experiment.exponent
              "lazy wait-rate exponent in Nodes (eq 14 model: 3)"
              ~expected:3. ~tolerance:0.8 waits;
            Experiment.exponent
              "dangerous-update rate exponent in Nodes (eq 14 shape: 3)"
              ~expected:3. ~tolerance:1.2 dangerous;
          ],
          [
            "Equation (14) reads the lazy system's wait rate as its \
             reconciliation hazard; the operational timestamp-mismatch \
             rate is lower but grows with the same instability.";
          ] ));
  }
