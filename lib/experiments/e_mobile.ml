(* E6 — Equations (15)-(18): disconnected lazy-group. One mobile node
   cycles against an otherwise-connected network (the paper's model: the
   node "connects and downloads to the rest of the network"); updates park
   while it is down and exchange at reconnect. We sweep Disconnected_Time
   and compare the measured dangerous-updates-per-cycle with equation
   (17)'s collision count and its rate with equation (18) (both quadratic
   in the disconnected batch). The measured count runs a small constant
   factor above eq (17): each colliding object produces a dangerous event
   at every replica that sees the stale chain, where the equation counts
   the node-cycle once. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Lazy_group_eq = Dangers_analytic.Lazy_group
module Repl_stats = Dangers_replication.Repl_stats
module Connectivity = Dangers_net.Connectivity

let connected_time = 10.

let base =
  {
    Params.default with
    db_size = 8000;
    nodes = 4;
    tps = 0.2;
    actions = 2;
    time_between_disconnects = connected_time;
  }

let experiment =
  {
    Experiment.id = "E6";
    title = "Equations (15)-(18): mobile reconciliation vs disconnect time";
    paper_ref = "Section 4, equations (15)-(18)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let disconnect_values =
          if quick then [ 25.; 100. ] else [ 12.5; 25.; 50.; 100. ]
        in
        let cycles = if quick then 40 else 120 in
        let table =
          Table.create
            ~caption:
              "One mobile node among 4 (TPS=0.2, Actions=2, DB=8000, connect \
               window 10s); events per disconnect cycle"
            [
              Table.column "Disconnected_Time (s)";
              Table.column "outbound eq15";
              Table.column "inbound eq16";
              Table.column "collisions/cycle eq17";
              Table.column "dangerous/cycle measured";
              Table.column "rate eq18 (/s, 1 node)";
              Table.column "rate measured (/s)";
            ]
        in
        let points =
          List.map
            (fun dt ->
              let params = { base with disconnected_time = dt } in
              let cycle = dt +. connected_time in
              let span = float_of_int cycles *. cycle in
              let mobility =
                Connectivity.day_cycle ~connected:connected_time ~disconnected:dt
              in
              let rate =
                Experiment.mean
                  (fun s -> s.Repl_stats.reconciliation_rate)
                  (Experiment.summaries "lazy-group"
                     (Scheme.spec ~connectivity:mobility ~mobile_nodes:[ 0 ]
                        params)
                     ~seeds ~warmup:cycle ~span)
              in
              let per_cycle = rate *. cycle in
              (* eq17 without the all-nodes factor: the one mobile node's
                 expected collisions per cycle. *)
              let model_collisions =
                Lazy_group_eq.p_collision params
                /. float_of_int params.Params.nodes
              in
              let model_rate =
                Lazy_group_eq.mobile_reconciliation_rate params
                /. float_of_int params.Params.nodes
              in
              Table.add_row table
                [
                  Table.cell_float ~digits:1 dt;
                  Table.cell_float ~digits:1 (Lazy_group_eq.outbound_updates params);
                  Table.cell_float ~digits:1 (Lazy_group_eq.inbound_updates params);
                  Table.cell_float ~digits:4 model_collisions;
                  Table.cell_float ~digits:4 per_cycle;
                  Table.cell_rate model_rate;
                  Table.cell_rate rate;
                ];
              ((dt, per_cycle), (dt, rate)))
            disconnect_values
        in
        let per_cycle, rates = List.split points in
        ( [ table ],
          [
            Experiment.exponent
              "collisions-per-cycle exponent in Disconnected_Time (model: 2)"
              ~expected:2. ~tolerance:0.9 per_cycle;
            Experiment.exponent
              "reconciliation-rate exponent in Disconnected_Time (model: 1)"
              ~expected:1. ~tolerance:0.9 rates;
          ],
          [
            "Each doubling of the disconnected period quadruples the \
             collisions per sync: overnight batches survive where weekly \
             ones drown.";
          ] ));
  }
