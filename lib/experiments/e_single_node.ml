(* E1 — Equations (1)-(5): single-node wait and deadlock rates, swept over
   TPS, Actions, and DB_Size, analytic prediction next to the simulator's
   measurement. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Single_node = Dangers_analytic.Single_node
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with nodes = 1; db_size = 200; tps = 20.; actions = 4 }

(* Deadlocks are read from a second, distinct set of runs at [seed + 7],
   simulated before the wait runs. *)
let measure params ~seeds ~span =
  let runs seeds =
    Experiment.summaries "eager-group" (Scheme.spec params) ~seeds ~warmup:5.
      ~span
  in
  let deadlocks = runs (List.map (fun seed -> seed + 7) seeds) in
  let waits = runs seeds in
  ( Experiment.mean (fun s -> s.Repl_stats.wait_rate) waits,
    Experiment.mean (fun s -> s.Repl_stats.deadlock_rate) deadlocks )

let sweep ~caption ~label ~values ~params_of ~seeds ~span =
  let table =
    Table.create ~caption
      [
        Table.column ~align:Table.Left label;
        Table.column "PW model";
        Table.column "waits/s model";
        Table.column "waits/s measured";
        Table.column "deadlocks/s model";
        Table.column "deadlocks/s measured";
      ]
  in
  let points =
    List.map
      (fun v ->
        let params = params_of v in
        let waits, deadlocks = measure params ~seeds ~span in
        Table.add_row table
          [
            Table.cell_float ~digits:0 v;
            Table.cell_float ~digits:4 (Single_node.pw params);
            Table.cell_rate (Single_node.node_wait_rate params);
            Table.cell_rate waits;
            Table.cell_rate (Single_node.node_deadlock_rate params);
            Table.cell_rate deadlocks;
          ];
        (v, waits))
      values
  in
  (table, points)

let experiment =
  {
    Experiment.id = "E1";
    title = "Equations (1)-(5): single-node waits and deadlocks";
    paper_ref = "Section 3, equations (1)-(5)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 60. else 300. in
        let tps_values = if quick then [ 20.; 40. ] else [ 10.; 20.; 40.; 80. ] in
        let tps_table, tps_points =
          sweep ~caption:"Sweep over TPS (Actions=4, DB=200)" ~label:"TPS"
            ~values:tps_values
            ~params_of:(fun tps -> { base with tps })
            ~seeds ~span
        in
        let action_values = if quick then [ 2.; 4. ] else [ 2.; 3.; 4.; 6. ] in
        let action_table, action_points =
          sweep ~caption:"Sweep over transaction size (TPS=20, DB=200)"
            ~label:"Actions" ~values:action_values
            ~params_of:(fun a -> { base with actions = int_of_float a })
            ~seeds ~span
        in
        let db_values = if quick then [ 100.; 400. ] else [ 100.; 200.; 400.; 800. ] in
        let db_table, db_points =
          sweep ~caption:"Sweep over database size (TPS=20, Actions=4)"
            ~label:"DB_Size" ~values:db_values
            ~params_of:(fun db -> { base with db_size = int_of_float db })
            ~seeds ~span
        in
        ( [ tps_table; action_table; db_table ],
          [
            Experiment.exponent "wait rate exponent in TPS (model: 2)"
              ~expected:2. ~tolerance:0.6 tps_points;
            Experiment.exponent "wait rate exponent in Actions (model: 3)"
              ~expected:3. ~tolerance:0.9 action_points;
            Experiment.exponent "wait rate exponent in DB_Size (model: -1)"
              ~expected:(-1.) ~tolerance:0.5 db_points;
          ],
          [
            "Deadlocks are waits^2-rare; their columns carry wide \
             statistical error at these run lengths - the wait columns \
             carry the shape test.";
          ] ));
  }
