(* E17 — §7's rejected alternative, measured: undo-oriented lazy-group
   makes every transaction tentative until all replicas acknowledge it.
   With one mobile node on a disconnect cycle, the mean durability lag of
   *everyone's* transactions tracks the disconnection period — "all
   transactions will be tentative until the missing node reconnects" —
   which is why the two-tier scheme anchors durability at the base
   instead. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Connectivity = Dangers_net.Connectivity
module Lazy_group_undo = Dangers_replication.Lazy_group_undo
module Common = Dangers_replication.Common
module Stats = Dangers_util.Stats

let connected_time = 10.

let params =
  { Params.default with db_size = 2000; nodes = 4; tps = 1.; actions = 2 }

let run_point ~dt ~seed ~cycles =
  let mobility =
    Connectivity.day_cycle ~connected:connected_time ~disconnected:dt
  in
  let sys =
    Lazy_group_undo.create ~mobility ~mobile_nodes:[ 0 ] params ~seed
  in
  Lazy_group_undo.start sys;
  Dangers_runtime.Clock.run_for (Lazy_group_undo.base sys).Common.clock
    (float_of_int cycles *. (dt +. connected_time));
  Lazy_group_undo.stop_load sys;
  Lazy_group_undo.force_sync sys;
  sys

let experiment =
  {
    Experiment.id = "E17";
    title = "Undo-oriented lazy-group: durability lag tracks the disconnect";
    paper_ref = "Section 7 (the rejected undo alternative)";
    run =
      (fun ~quick ~seed ->
        let cycles = if quick then 10 else 30 in
        let dts = if quick then [ 10.; 80. ] else [ 10.; 40.; 160. ] in
        let table =
          Table.create
            ~caption:
              "One mobile node among 4 (TPS=1/node, Actions=2, DB=2000): \
               time from commit to durability"
            [
              Table.column "Disconnected_Time (s)";
              Table.column "durable txns";
              Table.column "mean lag (s)";
              Table.column "p95 lag proxy: max (s)";
              Table.column "undone";
            ]
        in
        let points =
          List.map
            (fun dt ->
              let sys = run_point ~dt ~seed ~cycles in
              let lag = Lazy_group_undo.durability_lag sys in
              Table.add_row table
                [
                  Table.cell_float ~digits:0 dt;
                  Table.cell_int (Lazy_group_undo.durable sys);
                  Table.cell_float ~digits:2 (Stats.mean lag);
                  Table.cell_float ~digits:2 (Stats.max lag);
                  Table.cell_int (Lazy_group_undo.undone sys);
                ];
              (dt, Stats.mean lag))
            dts
        in
        let dt1, lag1 = Experiment.first_point points in
        let dt2, lag2 = Experiment.last_point points in
        (* Expected mean lag for a transaction at a uniformly random point
           of the mobile's cycle: the mobile is down dt/(dt+c) of the time,
           and a transaction then waits half the remaining downtime on
           average, so lag ~ dt^2 / (2 (dt+c)) -> ~dt/2 for dt >> c. *)
        let model dt = dt *. dt /. (2. *. (dt +. connected_time)) in
        let growth_model = model dt2 /. model dt1 in
        ( [ table ],
          [
            Experiment.ratio
              (Printf.sprintf
                 "durability lag grows with the disconnect (lag ratio %g/%g \
                  vs model %g)"
                 dt2 dt1 growth_model)
              ~expected:growth_model ~tolerance:growth_model lag2 lag1;
            Experiment.holds
              "mean lag at the largest disconnect is minutes-scale (> dt/4)"
              (lag2 > dt2 /. 4.);
          ],
          [
            "Durability held hostage by the least-connected replica is the \
             reason §7 rejects undo-oriented lazy-group for mobile use; \
             two-tier moves the durability point to the base transaction \
             instead.";
          ] ));
  }
