(* E4 — Equation (13): growing the database with the number of nodes
   (TPC-style) tames eager replication's cubic deadlock law to linear (and
   the wait law to quadratic). *)

let experiment =
  {
    Experiment.id = "E4";
    title = "Equation (13): deadlocks with a database scaled by nodes";
    paper_ref = "Section 3, equation (13)";
    run =
      (fun ~quick ~seed ->
        let seeds = Scheme.seeds ~quick ~base:seed in
        let span = if quick then 80. else 300. in
        let nodes_values = if quick then [ 2; 4 ] else [ 2; 3; 4; 6 ] in
        let table, waits, _ =
          E_eager_deadlock.sweep ~scale_db:true ~nodes_values ~seeds ~span ()
        in
        ( [ table ],
          [
            Experiment.exponent
              "wait-rate exponent in Nodes with scaled DB (model: 2)"
              ~expected:2. ~tolerance:0.8 waits;
          ],
          [
            "Compare with E3: scaling DB_Size with Nodes removes two powers \
             of N from the deadlock law (cubic -> linear) and one from the \
             wait law (cubic -> quadratic). Still growing, but no longer \
             explosive.";
          ] ));
  }
