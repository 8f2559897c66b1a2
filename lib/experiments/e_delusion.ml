(* E16 — "system delusion": "The database at each node diverges further
   and further from the others as reconciliation fails. Each
   reconciliation failure implies differences among nodes. Soon, the
   system suffers system delusion — the database is inconsistent and there
   is no obvious way to repair it" (§1).

   We run the same lazy-group workload three ways: with failed
   reconciliation (dangerous updates dropped), divergence grows with
   runtime; with timestamp-priority, it drains to zero; under two-tier,
   the master state is consistent by construction. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Reconcile = Dangers_replication.Reconcile
module Lazy_group = Dangers_replication.Lazy_group
module Common = Dangers_replication.Common
module Connectivity = Dangers_net.Connectivity
module Two_tier = Dangers_core.Two_tier
module Clock = Dangers_runtime.Clock

let params =
  { Params.default with db_size = 100; nodes = 4; tps = 5.; actions = 2 }

let lazy_divergence ~rule ~seed ~span =
  let sys = Lazy_group.create ~rule params ~seed in
  Lazy_group.start sys;
  Clock.run_for (Lazy_group.base sys).Common.clock span;
  Lazy_group.stop_load sys;
  Lazy_group.force_sync sys;
  Lazy_group.divergence sys

let experiment =
  {
    Experiment.id = "E16";
    title = "System delusion: failed reconciliation diverges without bound";
    paper_ref = "Section 1 (scaleup pitfall), section 6";
    run =
      (fun ~quick ~seed ->
        let spans = if quick then [ 20.; 80. ] else [ 30.; 120.; 480. ] in
        let table =
          Table.create
            ~caption:
              "Divergent (replica, object) pairs after load + full \
               exchange (4 nodes, TPS=5, Actions=2, DB=100)"
            [
              Table.column "runtime (s)";
              Table.column "failed reconciliation (Ignore)";
              Table.column "timestamp-priority";
            ]
        in
        let points =
          List.map
            (fun span ->
              let deluded = lazy_divergence ~rule:Reconcile.Ignore ~seed ~span in
              let lww =
                lazy_divergence ~rule:Reconcile.Timestamp_priority ~seed ~span
              in
              Table.add_row table
                [
                  Table.cell_float ~digits:0 span;
                  Table.cell_int deluded;
                  Table.cell_int lww;
                ];
              (span, deluded, lww))
            spans
        in
        (* Two-tier at the same load never deludes. *)
        let tt =
          Two_tier.create ~base_nodes:2
            ~mobility:(Connectivity.day_cycle ~connected:10. ~disconnected:20.)
            params ~seed
        in
        Two_tier.start tt;
        Clock.run_for (Two_tier.base tt).Common.clock (Experiment.last_point spans);
        Two_tier.quiesce_and_sync tt;
        let _, d_first, _ = Experiment.first_point points in
        let _, d_last, lww_last = Experiment.last_point points in
        ( [ table ],
          [
            Experiment.holds
              "failed reconciliation: divergence grows with runtime \
               (1 = yes)"
              (d_last > d_first && d_first > 0);
            Experiment.near "timestamp rule converges (0 divergence)"
              ~expected:0. ~tolerance:0. (float_of_int lww_last);
            Experiment.holds "two-tier at the same load: converged (1 = yes)"
              (Two_tier.converged tt);
          ],
          [
            "Divergence under failed reconciliation is a ratchet: once a \
             replica's timestamp chain breaks, every later update in that \
             lineage is dangerous too, so the inconsistency compounds \
             instead of healing - the paper's system delusion.";
          ] ));
  }
