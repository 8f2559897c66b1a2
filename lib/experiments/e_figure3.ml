(* F3 — Figure 3: scaleup vs partitioning vs replication. Doubling the
   users of a replicated system quadruples the update work: each of the two
   replicas must perform its own 2 TPS plus the other's, so the aggregate
   action rate is 4x the base system's (the N^2 law, equation 8). We
   measure the executed update-action rate of the eager simulator in each
   configuration. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Eager = Dangers_analytic.Eager
module Repl_stats = Dangers_replication.Repl_stats

let base_params =
  { Params.default with db_size = 2000; nodes = 1; tps = 10.; actions = 4 }

(* Executed actions/s, reconstructed from committed transactions (restarts
   are rare at this contention level). *)
let measured_action_rate summary ~params =
  summary.Repl_stats.commit_rate
  *. float_of_int (params.Params.actions * params.Params.nodes)

let experiment =
  {
    Experiment.id = "F3";
    title = "Figure 3: scaleup, partitioning, replication";
    paper_ref = "Figure 3, section 2 (equation 8)";
    run =
      (fun ~quick ~seed ->
        let span = if quick then 20. else 60. in
        let table =
          Table.create
            ~caption:
              "Growing a 10-TPS system: aggregate user TPS and node update \
               work (actions/s)"
            [
              Table.column ~align:Table.Left "strategy";
              Table.column "user TPS total";
              Table.column "actions/s model";
              Table.column "actions/s measured";
            ]
        in
        let run params =
          Scheme.run_named "eager-group" (Scheme.spec params) ~seed ~warmup:5. ~span |> fun summary ->
          measured_action_rate summary ~params
        in
        let add name params note_model =
          let measured = run params in
          Table.add_row table
            [
              name;
              Table.cell_float ~digits:0
                (params.Params.tps *. float_of_int params.Params.nodes);
              Table.cell_float ~digits:0 note_model;
              Table.cell_float ~digits:1 measured;
            ];
          (name, note_model, measured)
        in
        let base = add "base: 1 node, 10 TPS" base_params (Eager.action_rate base_params) in
        let scaleup =
          add "scaleup: 1 bigger node, 20 TPS"
            { base_params with tps = 20. }
            (Eager.action_rate { base_params with tps = 20. })
        in
        (* Partitioning: two independent half-databases; no replication
           work. Model: 2x the base actions. We simulate as two separate
           single-node systems. *)
        let partition_measured =
          let half = { base_params with db_size = 1000 } in
          let a = run half and b = run half in
          a +. b
        in
        Table.add_row table
          [
            "partition: 2 nodes, 10 TPS each";
            "20";
            Table.cell_float ~digits:0 80.;
            Table.cell_float ~digits:1 partition_measured;
          ];
        let replication =
          add "replication: 2 nodes, 10 TPS each"
            { base_params with nodes = 2 }
            (Eager.action_rate { base_params with nodes = 2 })
        in
        let _, _, base_measured = base in
        let _, _, replication_measured = replication in
        ignore scaleup;
        ( [ table ],
          [
            Experiment.ratio
              "replication doubles users but quadruples work (ratio)"
              ~expected:4. ~tolerance:0.4 replication_measured base_measured;
          ],
          [
            "Partitioning doubles throughput linearly; replication makes \
             each node do its own work plus every peer's (N^2).";
          ] ));
  }
