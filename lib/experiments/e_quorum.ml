(* E10 — the availability mechanism section 3 assumes for eager systems:
   Gifford weighted voting. Availability of majority quorums vs
   read-one/write-all as the fleet grows, at two per-replica uptime
   levels. *)

module Table = Dangers_util.Table
module Quorum = Dangers_replication.Quorum

let experiment =
  {
    Experiment.id = "E10";
    title = "Quorum availability (Gifford weighted voting)";
    paper_ref = "Section 3 (quorum assumption), Gifford SOSP'79";
    run =
      (fun ~quick:_ ~seed:_ ->
        let table =
          Table.create
            ~caption:"Probability the operation can proceed, per uptime p"
            [
              Table.column "replicas";
              Table.column "majority write, p=0.9";
              Table.column "majority write, p=0.99";
              Table.column "ROWA write, p=0.9";
              Table.column "ROWA read, p=0.9";
            ]
        in
        let rows =
          List.map
            (fun n ->
              let majority = Quorum.majority ~n in
              let rowa = Quorum.read_one_write_all ~n in
              let m90 = Quorum.write_availability majority ~p_up:0.9 in
              let m99 = Quorum.write_availability majority ~p_up:0.99 in
              Table.add_row table
                [
                  Table.cell_int n;
                  Table.cell_float ~digits:5 m90;
                  Table.cell_float ~digits:6 m99;
                  Table.cell_float ~digits:5 (Quorum.write_availability rowa ~p_up:0.9);
                  Table.cell_float ~digits:5 (Quorum.read_availability rowa ~p_up:0.9);
                ];
              (n, m99))
            [ 1; 3; 5; 7 ]
        in
        let m99_3 = List.assoc 3 rows and m99_7 = List.assoc 7 rows in
        ( [ table ],
          [
            Experiment.holds
              "majority availability improves with replicas at p=0.99 \
               (7 vs 3 replicas, difference > 0)"
              (m99_7 > m99_3);
            Experiment.near "majority write availability, 3 replicas, p=0.9"
              ~expected:0.972 ~tolerance:1e-9
              (Quorum.write_availability (Quorum.majority ~n:3) ~p_up:0.9);
          ],
          [
            "Replication helps availability only with quorum-style \
             update rules; read-one/write-all makes writes *less* \
             available as replicas are added.";
          ] ));
  }
