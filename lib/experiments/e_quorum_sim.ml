(* E14 — §3's availability assumption, validated dynamically: eager
   replication under node failures with majority quorums. The measured
   fraction of update attempts that find a write quorum should match the
   closed-form binomial prediction of E10, and every recovering node must
   catch up before counting again (up-replica consistency). *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Quorum = Dangers_replication.Quorum
module Quorum_sim = Dangers_replication.Quorum_sim
module Common = Dangers_replication.Common

let base = { Params.default with db_size = 200; tps = 2.; actions = 2 }

let run_point ~nodes ~uptime ~seed ~span =
  let params = { base with nodes } in
  let sim =
    Quorum_sim.create ~quorum:(Quorum.majority ~n:nodes) ~uptime
      ~mean_downtime:20. params ~seed
  in
  Quorum_sim.start sim;
  Dangers_runtime.Clock.run_for (Quorum_sim.base sim).Common.clock span;
  Quorum_sim.stop_load sim;
  ( Quorum_sim.availability sim,
    Quorum_sim.catch_ups sim,
    Quorum_sim.up_replicas_consistent sim )

let experiment =
  {
    Experiment.id = "E14";
    title = "Quorum availability under live failures (dynamic E10)";
    paper_ref = "Section 3 (quorum assumption), Gifford SOSP'79";
    run =
      (fun ~quick ~seed ->
        let span = if quick then 2_000. else 10_000. in
        let table =
          Table.create
            ~caption:
              "Majority quorums, exponential failures (mean downtime 20s); \
               measured update availability vs closed form"
            [
              Table.column "nodes";
              Table.column "uptime p";
              Table.column "closed form";
              Table.column "measured";
              Table.column "catch-ups";
              Table.column "up replicas consistent";
            ]
        in
        let points =
          List.concat_map
            (fun nodes ->
              List.map
                (fun uptime ->
                  let availability, catch_ups, consistent =
                    run_point ~nodes ~uptime ~seed ~span
                  in
                  let predicted =
                    Quorum.write_availability (Quorum.majority ~n:nodes)
                      ~p_up:uptime
                  in
                  Table.add_row table
                    [
                      Table.cell_int nodes;
                      Table.cell_float ~digits:2 uptime;
                      Table.cell_float ~digits:4 predicted;
                      Table.cell_float ~digits:4 availability;
                      Table.cell_int catch_ups;
                      (if consistent then "yes" else "NO");
                    ];
                  (predicted, availability, consistent))
                (if quick then [ 0.9 ] else [ 0.8; 0.9 ]))
            [ 3; 5 ]
        in
        let worst_gap =
          List.fold_left
            (fun acc (predicted, measured, _) ->
              Float.max acc (Float.abs (predicted -. measured)))
            0. points
        in
        let all_consistent = List.for_all (fun (_, _, c) -> c) points in
        ( [ table ],
          [
            Experiment.near "worst |measured - closed form| availability gap"
              ~expected:0. ~tolerance:0.05 worst_gap;
            Experiment.holds "up replicas always consistent (1 = yes)"
              all_consistent;
          ],
          [
            "The availability the eager analysis assumes is real but \
             bought with quorum overlap: every committed update reaches a \
             majority, so any future quorum contains a current replica \
             for recovering nodes to catch up from.";
          ] ));
  }
