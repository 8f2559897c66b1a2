(* E8 — Section 7's claims about the two-tier scheme:
   (a) base transactions behave like lazy-master (equation 19 deadlocks);
   (b) with commutative transaction design the reconciliation (rejection)
       rate is zero and every replica converges — no system delusion;
   (c) with non-commutative updates under a strict acceptance criterion,
       rejections appear and grow with the disconnection period, yet the
       base state stays consistent. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Lazy_master_eq = Dangers_analytic.Lazy_master
module Profile = Dangers_workload.Profile
module Connectivity = Dangers_net.Connectivity
module Repl_stats = Dangers_replication.Repl_stats
module Acceptance = Dangers_core.Acceptance
module Two_tier = Dangers_core.Two_tier
module Metrics = Dangers_sim.Metrics
module Common = Dangers_replication.Common

let base = { Params.default with db_size = 400; tps = 5.; actions = 4 }

(* (a) all nodes connected: the scheme degenerates to lazy-master. A hot
   parameter point (TPS=10, DB=200) makes the rare deadlock events
   observable within the measurement window. *)
let connected_deadlock_rates ~seeds ~span =
  List.map
    (fun nodes ->
      let params = { base with nodes; tps = 10.; db_size = 200 } in
      let deadlocks scheme spec =
        Experiment.mean
          (fun s -> s.Repl_stats.deadlock_rate)
          (Experiment.summaries scheme spec ~seeds ~warmup:5. ~span)
      in
      let two_tier =
        deadlocks "two-tier"
          (Scheme.spec ~connectivity:Connectivity.base_node
             ~base_nodes:(nodes / 2) params)
      in
      let lazy_master = deadlocks "lazy-master" (Scheme.spec params) in
      (nodes, Lazy_master_eq.deadlock_rate params, two_tier, lazy_master))
    [ 2; 4 ]

(* (b)/(c) a mobile fleet on a disconnect cycle. *)
let mobile_run ~profile ~acceptance ~dt ~seed ~cycles =
  let params =
    {
      base with
      nodes = 4;
      tps = 1.;
      actions = 2;
      db_size = 200;
      time_between_disconnects = 10.;
      disconnected_time = dt;
    }
  in
  let span = float_of_int cycles *. (dt +. 10.) in
  Scheme.run_outcome_named "two-tier"
    (Scheme.spec ~profile ~acceptance ~initial_value:10_000. ~base_nodes:2
       params)
    ~seed ~warmup:(dt +. 10.) ~span

(* Diagnostics are 0/1-encoded counters; see Scheme.Two_tier. *)
let diag outcome key =
  match Scheme.diagnostic outcome key with
  | Some v -> v
  | None -> invalid_arg ("two-tier outcome lacks diagnostic " ^ key)

let diag_int outcome key = int_of_float (diag outcome key)
let diag_flag outcome key = Float.equal (diag outcome key) 1.

let experiment =
  {
    Experiment.id = "E8";
    title = "Section 7: two-tier replication";
    paper_ref = "Section 7 (protocol properties 1-5)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 300. in
        let cycles = if quick then 10 else 30 in
        (* (a) connected behaviour *)
        let table_a =
          Table.create
            ~caption:
              "(a) Connected operation (TPS=10, DB=200): base deadlock rate \
               vs eq (19) and vs plain lazy-master"
            [
              Table.column "Nodes";
              Table.column "eq19 deadlocks/s";
              Table.column "two-tier measured";
              Table.column "lazy-master measured";
            ]
        in
        let connected_points = connected_deadlock_rates ~seeds ~span in
        List.iter
          (fun (nodes, model, two_tier, lazy_master) ->
            Table.add_row table_a
              [
                Table.cell_int nodes;
                Table.cell_rate model;
                Table.cell_rate two_tier;
                Table.cell_rate lazy_master;
              ])
          connected_points;
        let tt4, lm4 =
          match connected_points with
          | _ :: (_, _, tt4, lm4) :: _ -> (tt4, lm4)
          | _ -> invalid_arg "E8: sweep needs at least two node counts"
        in
        (* (b) commutative mobile fleet *)
        let commutative_profile =
          Profile.create ~update_kind:Profile.Increments ~actions:2 ()
        in
        let out_b =
          mobile_run ~profile:commutative_profile ~acceptance:Acceptance.Always
            ~dt:40. ~seed ~cycles
        in
        let tentative_b = diag_int out_b "tentative_commits" in
        let table_b =
          Table.create
            ~caption:
              "(b) Disconnected fleet, commutative (increment) transactions"
            [
              Table.column ~align:Table.Left "metric";
              Table.column "value";
            ]
        in
        Table.add_row table_b [ "tentative transactions"; Table.cell_int tentative_b ];
        Table.add_row table_b
          [
            "accepted at base";
            Table.cell_int (diag_int out_b "tentative_accepted");
          ];
        Table.add_row table_b
          [ "rejected"; Table.cell_int (diag_int out_b "tentative_rejected") ];
        Table.add_row table_b
          [
            "converged after sync";
            (if diag_flag out_b "converged" then "yes" else "NO");
          ];
        (* (c) non-commutative + strict acceptance, sweeping the
           disconnected period *)
        let table_c =
          Table.create
            ~caption:
              "(c) Increment transactions under exact-match acceptance \
               (re-execution drifts when anyone else touched the object): \
               rejects vs Disconnected_Time"
            [
              Table.column "Disconnected_Time (s)";
              Table.column "tentative";
              Table.column "rejected";
              Table.column "reject fraction";
              Table.column "converged";
            ]
        in
        let drift_profile =
          Profile.create ~update_kind:Profile.Increments ~actions:2 ()
        in
        let dts = if quick then [ 10.; 80. ] else [ 10.; 40.; 160. ] in
        let reject_fractions =
          List.map
            (fun dt ->
              let out =
                mobile_run ~profile:drift_profile
                  ~acceptance:Acceptance.Exact_match ~dt ~seed:(seed + 31)
                  ~cycles
              in
              let tentative = diag_int out "tentative_commits" in
              let rejected = diag_int out "tentative_rejected" in
              let fraction =
                if tentative = 0 then 0.
                else float_of_int rejected /. float_of_int tentative
              in
              Table.add_row table_c
                [
                  Table.cell_float ~digits:0 dt;
                  Table.cell_int tentative;
                  Table.cell_int rejected;
                  Table.cell_float ~digits:4 fraction;
                  (if diag_flag out "converged" then "yes" else "NO");
                ];
              (dt, fraction, diag_flag out "converged"))
            dts
        in
        let _, first_fraction, _ = Experiment.first_point reject_fractions in
        let _, last_fraction, last_converged =
          Experiment.last_point reject_fractions
        in
        ( [ table_a; table_b; table_c ],
          [
            Experiment.ratio
              "connected two-tier deadlock rate matches lazy-master \
               (ratio at 4 nodes; eq 19 for both)"
              ~expected:1. ~tolerance:2. tt4 lm4;
            Experiment.near "commutative design: rejected tentative transactions"
              ~expected:0. ~tolerance:0. (diag out_b "tentative_rejected");
            Experiment.holds "commutative design: converged (1 = yes)"
              (diag_flag out_b "converged");
            Experiment.holds
              "strict acceptance: reject fraction grows with disconnect \
               time (last - first > 0)"
              (last_fraction > first_fraction);
            Experiment.holds
              "no system delusion even while rejecting (converged, 1 = yes)"
              last_converged;
          ],
          [
            "Base transactions run lazy-master, so their deadlock rate is \
             equation (19)'s N^2 law; mobiles never block the base, and \
             rejected tentative work returns to its author with a \
             diagnostic instead of corrupting the master state.";
          ] ));
  }
