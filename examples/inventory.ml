(* Warehouse inventory on commutative updates — §6's point that
   "transactions can be designed to commute, so that the database ends up
   in the same state no matter what transaction execution order is chosen".

   Four warehouses adjust shared stock counters by increments (receipts and
   shipments). We run the same update stream through:
   - lazy-group with last-writer-wins reconciliation: deltas get lost;
   - lazy-group with the additive (commutative) rule: exact convergence;
   - two-tier with disconnected warehouses: zero rejects, exact sums.

   Run with: dune exec examples/inventory.exe *)

module Params = Dangers_analytic.Params
module Clock = Dangers_runtime.Clock
module Oid = Dangers_storage.Oid
module Fstore = Dangers_storage.Store.Fstore
module Profile = Dangers_workload.Profile
module Connectivity = Dangers_net.Connectivity
module Common = Dangers_replication.Common
module Reconcile = Dangers_replication.Reconcile
module Lazy_group = Dangers_replication.Lazy_group
module Two_tier = Dangers_core.Two_tier
module Commutative = Dangers_core.Commutative

let params =
  { Params.default with nodes = 4; db_size = 40; tps = 4.; actions = 2 }

let profile = Profile.create ~update_kind:Profile.Increments ~magnitude:10. ~actions:2 ()
let opening_stock = 1000.

let lazy_group_run ~rule ~seed =
  let sys =
    Lazy_group.create ~profile ~initial_value:opening_stock ~rule params ~seed
  in
  Lazy_group.start sys;
  Clock.run_for (Lazy_group.base sys).Common.clock 60.;
  Lazy_group.stop_load sys;
  Lazy_group.force_sync sys;
  let store = (Lazy_group.base sys).Common.stores.(0) in
  let worst, total =
    Fstore.fold store ~init:(0., 0.) ~f:(fun (worst, total) oid value _ ->
        let error = Float.abs (value -. Lazy_group.expected_sum sys oid) in
        (Float.max worst error, total +. error))
  in
  Printf.printf "  %-22s worst counter error: %7.1f, total error: %8.1f\n"
    (Reconcile.rule_name rule ^ ":") worst total

let two_tier_run ~seed =
  let sys =
    Two_tier.create ~profile ~initial_value:opening_stock ~base_nodes:2
      ~mobility:(Connectivity.day_cycle ~connected:10. ~disconnected:30.)
      params ~seed
  in
  Two_tier.start sys;
  Clock.run_for (Two_tier.base sys).Common.clock 120.;
  Two_tier.quiesce_and_sync sys;
  Printf.printf
    "  two-tier:              tentative=%d accepted=%d rejected=%d converged=%b\n"
    (Dangers_sim.Metrics.total
       (Two_tier.base sys).Common.stats.Dangers_replication.Repl_stats.tentative_commits)
    (Two_tier.tentative_accepted sys)
    (Two_tier.tentative_rejected sys)
    (Two_tier.converged sys)

let () =
  Printf.printf
    "Four warehouses adjusting %d stock counters with commutative \
     increments.\n\n"
    params.Params.db_size;
  (* The design rule, checked: every generated transaction commutes. *)
  let sample =
    List.init 10 (fun i ->
        Commutative.adjust_stock (Oid.of_int (i mod params.Params.db_size))
          (float_of_int (i - 5)))
  in
  Printf.printf "sample transactions pairwise commute: %b\n\n"
    (Commutative.pairwise_commute sample);
  Printf.printf "lazy-group, 60s of traffic, then full exchange:\n";
  lazy_group_run ~rule:Reconcile.Timestamp_priority ~seed:21;
  lazy_group_run ~rule:Reconcile.Additive ~seed:21;
  Printf.printf "\ntwo-tier, warehouses offline 3/4 of the time:\n";
  two_tier_run ~seed:22
