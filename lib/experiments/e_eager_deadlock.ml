(* E3 — Equations (9)-(12): eager replication's cubic instability. Waits
   (plentiful) carry the exponent test; deadlocks (waits^2-rare) are
   checked as a growth ratio between the sweep's endpoints. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Eager = Dangers_analytic.Eager
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with db_size = 400; tps = 5.; actions = 4 }

let measure params ~seeds ~span =
  let runs =
    Experiment.summaries "eager-group" (Scheme.spec params) ~seeds ~warmup:5.
      ~span
  in
  ( Experiment.mean (fun s -> s.Repl_stats.wait_rate) runs,
    Experiment.mean (fun s -> s.Repl_stats.deadlock_rate) runs )

let sweep ?(scale_db = false) ~nodes_values ~seeds ~span () =
  let caption =
    if scale_db then
      "Eager, database scaled with nodes (DB = 400 x N): equation (13)"
    else "Eager, fixed database (DB = 400): equations (10) and (12)"
  in
  let table =
    Table.create ~caption
      [
        Table.column "Nodes";
        Table.column "waits/s model";
        Table.column "waits/s measured";
        Table.column "deadlocks/s model";
        Table.column "deadlocks/s measured";
      ]
  in
  let points =
    List.map
      (fun nodes ->
        let params =
          let p = { base with nodes } in
          if scale_db then Params.scale_db_with_nodes p else p
        in
        let waits, deadlocks = measure params ~seeds ~span in
        Table.add_row table
          [
            Table.cell_int nodes;
            Table.cell_rate (Eager.total_wait_rate params);
            Table.cell_rate waits;
            (* At the scaled db_size, eq (12) is the paper's eq (13). *)
            Table.cell_rate (Eager.total_deadlock_rate params);
            Table.cell_rate deadlocks;
          ];
        let n = float_of_int nodes in
        ((n, waits), (n, deadlocks)))
      nodes_values
  in
  let waits, deadlocks = List.split points in
  (table, waits, deadlocks)

let experiment =
  {
    Experiment.id = "E3";
    title = "Equations (9)-(12): eager deadlocks rise as Nodes^3";
    paper_ref = "Section 3, equations (9)-(12)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 300. in
        let nodes_values = if quick then [ 2; 4 ] else [ 2; 3; 4; 6 ] in
        let table, waits, deadlocks = sweep ~nodes_values ~seeds ~span () in
        let n1, d1 = Experiment.first_point deadlocks in
        let n2, d2 = Experiment.last_point deadlocks in
        let growth_model = (n2 /. n1) ** 3. in
        ( [ table ],
          [
            Experiment.exponent "wait-rate exponent in Nodes (model: 3)"
              ~expected:3. ~tolerance:0.8 waits;
            Experiment.ratio
              (Printf.sprintf "deadlock growth %gx nodes (model: %gx, cubic)"
                 (n2 /. n1) growth_model)
              ~expected:growth_model ~tolerance:(growth_model *. 1.5) d2 d1;
            Experiment.exponent "deadlock-rate exponent in Nodes (model: 3)"
              ~expected:3. ~tolerance:1.5 deadlocks;
          ],
          [
            "The paper's headline: a ten-fold increase in nodes gives a \
             thousand-fold increase in deadlocks. The measured wait \
             exponent carries the statistical weight; deadlocks are rare \
             events with matching growth.";
          ] ));
  }
