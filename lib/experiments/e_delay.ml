(* E11 — ablation: message delays. The model sets Message_Delay = 0 and
   notes, three times, that real delays only make its rates worse ("each
   transaction would last much longer, would hold resources much longer,
   and so would be more likely to collide"). We charge eager transactions
   their remote-step delays and lazy-group its propagation delay, and
   watch waits, deadlocks, and reconciliations climb. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Delay = Dangers_runtime.Delay
module Repl_stats = Dangers_replication.Repl_stats

let base = { Params.default with db_size = 400; nodes = 3; tps = 5.; actions = 4 }

let experiment =
  {
    Experiment.id = "E11";
    title = "Ablation: message delays make every rate worse";
    paper_ref = "Sections 3-4 (Message_Delay ignored by the model)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 300. in
        let delays = if quick then [ 0.; 0.02 ] else [ 0.; 0.005; 0.02; 0.05 ] in
        let table =
          Table.create
            ~caption:
              "3 nodes, TPS=5/node, Actions=4, DB=400; per-message delay \
               added to remote work"
            [
              Table.column "Message_Delay (s)";
              Table.column "eager duration (s)";
              Table.column "eager waits/s";
              Table.column "eager deadlocks/s";
              Table.column "lazy-group dangerous/s";
            ]
        in
        let points =
          List.map
            (fun d ->
              let delay =
                if Float.equal d 0. then Delay.Zero else Delay.Constant d
              in
              let runs scheme =
                Experiment.summaries scheme
                  (Scheme.spec ~transport_delay:delay base)
                  ~seeds ~warmup:5. ~span
              in
              let eager = runs "eager-group" in
              let lazy_group = runs "lazy-group" in
              let duration =
                Experiment.mean (fun s -> s.Repl_stats.mean_duration) eager
              in
              let waits = Experiment.mean (fun s -> s.Repl_stats.wait_rate) eager in
              let deadlocks =
                Experiment.mean (fun s -> s.Repl_stats.deadlock_rate) eager
              in
              let dangerous =
                Experiment.mean
                  (fun s -> s.Repl_stats.reconciliation_rate)
                  lazy_group
              in
              Table.add_row table
                [
                  Table.cell_float ~digits:3 d;
                  Table.cell_float ~digits:3 duration;
                  Table.cell_rate waits;
                  Table.cell_rate deadlocks;
                  Table.cell_rate dangerous;
                ];
              (d, waits, dangerous))
            delays
        in
        let _, w0, r0 = Experiment.first_point points in
        let _, w_last, r_last = Experiment.last_point points in
        ( [ table ],
          [
            Experiment.holds "delays raise the eager wait rate (1 = yes)"
              (w_last > w0);
            Experiment.holds
              "delays raise lazy-group's dangerous-update rate (1 = yes)"
              (r_last > r0);
          ],
          [
            "The zero-delay rows are the model's assumption; every added \
             millisecond stretches lock hold times (eager) and the window \
             in which a replica is stale (lazy), so the zero-delay \
             equations are a lower bound.";
          ] ));
  }
