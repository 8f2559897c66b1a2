(* E12 — ablation: hotspots. Table 2's model assumes "access to objects is
   equi-probable (there are no hotspots)". Skewing the access pattern
   (Zipf) concentrates the load on few objects — effectively shrinking
   DB_Size — and the 1/DB and 1/DB^2 laws say waits and deadlocks must
   climb. This bounds how optimistic the uniform-access equations are for
   real workloads. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with db_size = 1000; nodes = 1; tps = 20.; actions = 4 }

let experiment =
  {
    Experiment.id = "E12";
    title = "Ablation: hotspots break the no-hotspot assumption";
    paper_ref = "Section 2, Table 2 (equi-probable access assumption)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 300. in
        let thetas = if quick then [ 0.; 0.9 ] else [ 0.; 0.5; 0.9; 1.2 ] in
        let table =
          Table.create
            ~caption:
              "Single node, TPS=20, Actions=4, DB=1000; Zipf skew over the \
               same database"
            [
              Table.column "Zipf theta";
              Table.column "waits/s";
              Table.column "deadlocks/s";
              Table.column "uniform model waits/s";
            ]
        in
        let uniform_model =
          Dangers_analytic.Single_node.node_wait_rate base
        in
        let points =
          List.map
            (fun theta ->
              let access =
                if Float.equal theta 0. then Profile.Uniform else Profile.Zipf theta
              in
              let profile = Profile.create ~access ~actions:base.Params.actions () in
              let runs =
                Experiment.summaries "eager-group" (Scheme.spec ~profile base)
                  ~seeds ~warmup:5. ~span
              in
              let waits = Experiment.mean (fun s -> s.Repl_stats.wait_rate) runs in
              let deadlocks =
                Experiment.mean (fun s -> s.Repl_stats.deadlock_rate) runs
              in
              Table.add_row table
                [
                  Table.cell_float ~digits:1 theta;
                  Table.cell_rate waits;
                  Table.cell_rate deadlocks;
                  Table.cell_rate uniform_model;
                ];
              (theta, waits))
            thetas
        in
        let _, w_uniform = Experiment.first_point points in
        let _, w_hot = Experiment.last_point points in
        ( [ table ],
          [
            Experiment.holds
              "hotspot contention exceeds the uniform assumption \
               (hot/uniform wait ratio > 2)"
              (w_hot > 2. *. w_uniform);
          ],
          [
            "With theta ~ 1 the effective database is a handful of hot \
             objects: the equations' DB_Size must be read as the *hot set* \
             size, which makes the instability thresholds far closer than \
             the uniform numbers suggest.";
          ] ));
  }
