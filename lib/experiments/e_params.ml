(* T2 — Table 2: the model's variables, their meanings, and the repository's
   default base point. An input table, regenerated for completeness. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params

let experiment =
  {
    Experiment.id = "T2";
    title = "Table 2: model variables and defaults";
    paper_ref = "Table 2, section 2";
    run =
      (fun ~quick:_ ~seed:_ ->
        let p = Params.default in
        let table =
          Table.create
            ~caption:"Table 2 variables (defaults used by every experiment)"
            [
              Table.column ~align:Table.Left "variable";
              Table.column ~align:Table.Left "meaning";
              Table.column "default";
            ]
        in
        let row name meaning value = Table.add_row table [ name; meaning; value ] in
        row "DB_Size" "distinct objects in the database"
          (Table.cell_int p.Params.db_size);
        row "Nodes" "nodes, each replicating all objects"
          (Table.cell_int p.Params.nodes);
        row "TPS" "transactions per second originating at a node"
          (Table.cell_float ~digits:1 p.Params.tps);
        row "Actions" "updates in a transaction" (Table.cell_int p.Params.actions);
        row "Action_Time" "seconds to perform an action"
          (Table.cell_float ~digits:3 p.Params.action_time);
        row "Time_Between_Disconnects" "mean connected time, seconds"
          (Table.cell_float ~digits:0 p.Params.time_between_disconnects);
        row "Disconnected_Time" "mean disconnected time, seconds"
          (Table.cell_float ~digits:0 p.Params.disconnected_time);
        row "Message_Delay" "propagation delay (ignored by the model)"
          (Table.cell_float ~digits:3 p.Params.message_delay);
        row "Message_CPU" "per-message processing (ignored by the model)"
          (Table.cell_float ~digits:3 p.Params.message_cpu);
        ( [ table ],
          [],
          [
            "Input table: these defaults seed every other experiment; \
             sweeps override individual fields.";
          ] ));
  }
