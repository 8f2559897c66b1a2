(* E13 — Figure 3's footnote: "Read-only transactions need not generate
   any additional load on remote nodes." The model drops reads entirely;
   the simulator supports them (S locks, local-only under eager), and this
   experiment verifies that adding reads to a replicated transaction costs
   local time only: duration = (updates x Nodes + reads) x Action_Time. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with db_size = 2000; nodes = 3; tps = 1.; actions = 2 }

let experiment =
  {
    Experiment.id = "E13";
    title = "Reads add no remote load (Figure 3 note)";
    paper_ref = "Figure 3 / section 2 (reads ignored by the model)";
    run =
      (fun ~quick ~seed ->
        let span = if quick then 30. else 120. in
        let table =
          Table.create
            ~caption:
              "Eager, 3 nodes, 2 updates per transaction, uncontended: \
               duration vs reads per transaction"
            [
              Table.column "reads/txn";
              Table.column "duration model (s)";
              Table.column "duration measured (s)";
            ]
        in
        let points =
          List.map
            (fun reads ->
              let profile = Profile.create ~reads ~actions:base.Params.actions () in
              let summary = Scheme.run_named "eager-group" (Scheme.spec ~profile base) ~seed ~warmup:5. ~span in
              (* updates lock all replicas (2 x 3 steps); reads lock the
                 local copy only (1 step each). *)
              let model =
                float_of_int
                  ((base.Params.actions * base.Params.nodes) + reads)
                *. base.Params.action_time
              in
              Table.add_row table
                [
                  Table.cell_int reads;
                  Table.cell_float ~digits:3 model;
                  Table.cell_float ~digits:3 summary.Repl_stats.mean_duration;
                ];
              (reads, model, summary.Repl_stats.mean_duration))
            [ 0; 2; 6 ]
        in
        ( [ table ],
          List.map
            (fun (reads, model, measured) ->
              Experiment.near
                (Printf.sprintf "duration with %d reads (local cost only)" reads)
                ~expected:model ~tolerance:0.01 measured)
            points,
          [
            "If reads replicated like writes, each read would cost Nodes x \
             Action_Time; the measured durations confirm reads are \
             local-only, which is why read-mostly systems replicate so \
             well.";
          ] ));
  }
