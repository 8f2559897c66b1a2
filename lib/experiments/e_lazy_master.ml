(* E7 — Equation (19): lazy-master deadlocks rise as Nodes^2 — unstable,
   but a full power of N better than eager's cubic law. The exponent sweep
   runs at a hot parameter point (TPS=10, DB=200) so the waits^2-rare
   deadlock events are actually observable; the eager-vs-lazy-master
   ordering claim is measured separately at E3's milder point, where the
   eager simulator is still in the model's regime. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Eager_eq = Dangers_analytic.Eager
module Lazy_master_eq = Dangers_analytic.Lazy_master
module Repl_stats = Dangers_replication.Repl_stats

let hot = { Params.default with db_size = 200; tps = 10.; actions = 4 }
let mild = { Params.default with db_size = 400; tps = 5.; actions = 4 }

let experiment =
  {
    Experiment.id = "E7";
    title = "Equation (19): lazy-master deadlocks rise as Nodes^2";
    paper_ref = "Section 5, equation (19)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 400. in
        let nodes_values = if quick then [ 2; 4 ] else [ 2; 3; 4; 6 ] in
        let table =
          Table.create
            ~caption:
              "Lazy-master at a hot point (TPS=10/node, Actions=4, DB=200)"
            [
              Table.column "Nodes";
              Table.column "eq19 deadlocks/s";
              Table.column "measured deadlocks/s";
              Table.column "eq10-style waits/s model";
              Table.column "measured waits/s";
            ]
        in
        let points =
          List.map
            (fun nodes ->
              let params = { hot with nodes } in
              let runs =
                Experiment.summaries "lazy-master" (Scheme.spec params) ~seeds
                  ~warmup:5. ~span
              in
              let deadlocks =
                Experiment.mean (fun s -> s.Repl_stats.deadlock_rate) runs
              in
              let waits = Experiment.mean (fun s -> s.Repl_stats.wait_rate) runs in
              (* The master lock space behaves like one node at N x TPS:
                 waits ~ (N TPS)^2 AT A^3 / (2 DB). *)
              let wait_model =
                ((params.Params.tps *. float_of_int nodes) ** 2.)
                *. params.Params.action_time
                *. (float_of_int params.Params.actions ** 3.)
                /. (2. *. float_of_int params.Params.db_size)
              in
              Table.add_row table
                [
                  Table.cell_int nodes;
                  Table.cell_rate (Lazy_master_eq.deadlock_rate params);
                  Table.cell_rate deadlocks;
                  Table.cell_rate wait_model;
                  Table.cell_rate waits;
                ];
              let n = float_of_int nodes in
              ((n, deadlocks), (n, waits)))
            nodes_values
        in
        let deadlocks, waits = List.split points in
        (* Ordering vs eager at the milder point, largest N. *)
        let big = Experiment.last_point nodes_values in
        let mild_params = { mild with nodes = big } in
        let mild_deadlocks scheme =
          Experiment.mean
            (fun s -> s.Repl_stats.deadlock_rate)
            (Experiment.summaries scheme (Scheme.spec mild_params) ~seeds
               ~warmup:5. ~span)
        in
        let eager_deadlocks = mild_deadlocks "eager-group" in
        let lm_mild_deadlocks = mild_deadlocks "lazy-master" in
        let table_order =
          Table.create
            ~caption:
              (Printf.sprintf
                 "Ordering at %d nodes (TPS=5, DB=400): who deadlocks more?"
                 big)
            [
              Table.column ~align:Table.Left "scheme";
              Table.column "model deadlocks/s";
              Table.column "measured";
            ]
        in
        Table.add_row table_order
          [
            "eager-group";
            Table.cell_rate (Eager_eq.total_deadlock_rate mild_params);
            Table.cell_rate eager_deadlocks;
          ];
        Table.add_row table_order
          [
            "lazy-master";
            Table.cell_rate (Lazy_master_eq.deadlock_rate mild_params);
            Table.cell_rate lm_mild_deadlocks;
          ];
        ( [ table; table_order ],
          [
            Experiment.exponent
              "lazy-master deadlock exponent in Nodes (model: 2)"
              ~expected:2. ~tolerance:1.2 deadlocks;
            Experiment.exponent "lazy-master wait exponent in Nodes (model: 2)"
              ~expected:2. ~tolerance:0.8 waits;
            Experiment.holds
              "eager deadlocks exceed lazy-master at the same load \
               (1 = yes; model ratio is N)"
              (eager_deadlocks > lm_mild_deadlocks);
          ],
          [
            "Shorter transactions are the whole advantage: lazy-master \
             holds each lock for Actions x Action_Time instead of eager's \
             Nodes x Actions x Action_Time.";
          ] ));
  }
