(* Paths the main suites skim over: generic store instances, exponential
   connectivity, delayed two-tier, custom rules and criteria, summary
   pretty-printers. *)

module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Store = Dangers_storage.Store
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Params = Dangers_analytic.Params
module Rng = Dangers_util.Rng
module Common = Dangers_replication.Common
module Repl_stats = Dangers_replication.Repl_stats
module Reconcile = Dangers_replication.Reconcile
module Acceptance = Dangers_core.Acceptance
module Two_tier = Dangers_core.Two_tier
module Op = Dangers_txn.Op

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let o n = Oid.of_int n

(* --- Store functor at a non-float value type --- *)

module Pair_value = struct
  type t = int * string

  let equal (a, b) (c, d) = Int.equal a c && String.equal b d
  let pp ppf (n, s) = Format.fprintf ppf "(%d, %s)" n s
end

module Pstore = Store.Make (Pair_value)

let test_store_functor_generic () =
  let s = Pstore.create ~db_size:3 ~init:(0, "init") in
  let stamp = Timestamp.make ~counter:1 ~node:0 in
  Pstore.write s (o 1) (7, "seven") stamp;
  checkb "read back" true (Pair_value.equal (7, "seven") (Pstore.read s (o 1)));
  let t = Pstore.copy s in
  checkb "copies equal" true (Pstore.content_equal s t);
  (match
     Pstore.apply_if_newer s (o 1) (9, "nine") (Timestamp.make ~counter:0 ~node:0)
   with
  | `Stale -> ()
  | `Applied -> Alcotest.fail "older stamp must be stale");
  checkb "value preserved" true (Pair_value.equal (7, "seven") (Pstore.read s (o 1)))

(* --- Exponential connectivity distribution --- *)

let test_exponential_connectivity () =
  let engine = Engine.create () in
  let toggles = ref 0 in
  let spec =
    {
      Connectivity.time_between_disconnects = 10.;
      disconnected_time = 10.;
      distribution = Connectivity.Exponential;
      start_connected = true;
    }
  in
  let schedule =
    Connectivity.install ~clock:engine ~rng:(Rng.create ~seed:3) ~spec
      ~set_connected:(fun _ -> incr toggles)
  in
  Engine.run engine ~until:1000.;
  Connectivity.stop schedule;
  (* Mean cycle 20s over 1000s: expect ~100 toggles; loose band. *)
  checkb "toggled a plausible number of times" true
    (!toggles > 50 && !toggles < 200)

(* --- Two-tier with real message delay still converges --- *)

let test_two_tier_with_delay () =
  let params =
    { Params.default with nodes = 3; db_size = 40; tps = 3.;
      time_between_disconnects = 10.; disconnected_time = 15. }
  in
  let profile =
    Dangers_workload.Profile.create ~update_kind:Dangers_workload.Profile.Increments
      ~actions:2 ()
  in
  let sys =
    Two_tier.create ~profile ~delay:(Delay.Constant 0.05) ~base_nodes:1 params
      ~seed:8
  in
  Two_tier.start sys;
  Clock.run_for (Two_tier.base sys).Common.clock 60.;
  Two_tier.quiesce_and_sync sys;
  checkb "converged despite delays" true (Two_tier.converged sys);
  checkb "serializable" true (Two_tier.base_history_serializable sys)

(* --- Custom reconcile rule and custom acceptance --- *)

let test_custom_rule_and_acceptance () =
  let stamp = Timestamp.make ~counter:4 ~node:1 in
  let incoming =
    { Reconcile.oid = o 0; old_stamp = Timestamp.zero; value = 10.;
      delta = None; stamp; origin = 1 }
  in
  let average =
    Reconcile.Custom
      (fun ~current_value ~current_stamp:_ u ->
        Reconcile.Merge ((current_value +. u.Reconcile.value) /. 2.))
  in
  (match
     Reconcile.resolve average ~current_value:20.
       ~current_stamp:(Timestamp.make ~counter:1 ~node:0) incoming
   with
  | Reconcile.Merge v -> checkf "average merge" 15. v
  | _ -> Alcotest.fail "merge expected");
  checkb "custom rule named" true (Reconcile.rule_name average = "custom");
  let within_ten_percent =
    Acceptance.Custom
      ( "within-10pct",
        fun outcomes ->
          List.for_all
            (fun { Acceptance.tentative; base; _ } ->
              Float.abs (base -. tentative) <= 0.1 *. Float.abs tentative)
            outcomes )
  in
  checkb "custom accepts" true
    (Acceptance.accept within_ten_percent
       [ { Acceptance.oid = o 0; tentative = 100.; base = 105. } ]);
  (match
     Acceptance.explain within_ten_percent
       [ { Acceptance.oid = o 0; tentative = 100.; base = 150. } ]
   with
  | Some reason ->
      checkb "custom diagnostic names the criterion" true
        (String.length reason > 0)
  | None -> Alcotest.fail "custom rejection must explain")

(* --- Repl_stats pretty-printer and metrics odds and ends --- *)

let test_summary_pp_and_metrics_names () =
  let engine = Engine.create () in
  let metrics = Metrics.of_engine engine in
  let stats = Repl_stats.create metrics in
  Metrics.incr stats.Repl_stats.commits;
  Metrics.incr stats.Repl_stats.waits;
  ignore (Engine.schedule engine ~delay:2. (fun () -> ()));
  Engine.run engine;
  let summary = Repl_stats.summarize ~scheme:"test" metrics stats in
  let rendered = Format.asprintf "%a" Repl_stats.pp_summary summary in
  checkb "pp mentions scheme" true (String.length rendered > 10);
  checki "summary commits" 1 summary.Repl_stats.commits;
  checkf "summary wait rate" 0.5 summary.Repl_stats.wait_rate;
  checki "events fired" 1 (Engine.events_fired engine)

(* --- Two-tier submit routes through a connected mobile directly --- *)

let test_connected_mobile_direct () =
  let params = { Params.default with nodes = 2; db_size = 10; tps = 1. } in
  let sys =
    Two_tier.create ~mobility:Connectivity.base_node ~base_nodes:1 params ~seed:9
  in
  Two_tier.submit sys ~node:1 [ Op.Increment (o 1, 4.) ];
  Common.drain (Two_tier.base sys);
  checki "no tentative work" 0
    (Metrics.total (Two_tier.base sys).Common.stats.Repl_stats.tentative_commits);
  checkf "applied at the base" 4.
    (Dangers_storage.Store.Fstore.read (Two_tier.base sys).Common.stores.(0) (o 1))

let suite =
  [
    Alcotest.test_case "store functor generic value" `Quick test_store_functor_generic;
    Alcotest.test_case "exponential connectivity" `Quick test_exponential_connectivity;
    Alcotest.test_case "two-tier with delay" `Quick test_two_tier_with_delay;
    Alcotest.test_case "custom rule and acceptance" `Quick test_custom_rule_and_acceptance;
    Alcotest.test_case "summary pp and metrics names" `Quick
      test_summary_pp_and_metrics_names;
    Alcotest.test_case "connected mobile direct" `Quick test_connected_mobile_direct;
  ]
