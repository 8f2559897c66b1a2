(* E9 — Section 6: convergence without serializability. Three probes:
   Lotus-Notes-style timestamped replace loses concurrent updates while
   appends lose nothing; Access version vectors detect and report exactly
   the concurrent pairs; and in the running lazy-group system the additive
   (commutative) rule reproduces the exact sums that timestamp-priority
   loses. *)

module Table = Dangers_util.Table
module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Oid = Dangers_storage.Oid
module Fstore = Dangers_storage.Store.Fstore
module Convergence = Dangers_replication.Convergence
module Reconcile = Dangers_replication.Reconcile
module Lazy_group = Dangers_replication.Lazy_group
module Common = Dangers_replication.Common
module Clock = Dangers_runtime.Clock

(* Notes: [sites] replicas each replace every one of [registers] keys once,
   concurrently, then exchange all-pairs until converged. Every register
   keeps exactly one winner: lost = issued - registers. *)
let notes_probe ~sites ~registers =
  let replicas = List.init sites (fun site -> Convergence.Notes.create ~site) in
  List.iteri
    (fun i r ->
      for k = 0 to registers - 1 do
        Convergence.Notes.replace r ~key:(string_of_int k)
          ~value:(float_of_int ((i * registers) + k));
        Convergence.Notes.append r (Printf.sprintf "note-%d-%d" i k)
      done)
    replicas;
  let rec exchange_round () =
    List.iteri
      (fun i a ->
        List.iteri (fun j b -> if i < j then Convergence.Notes.exchange a b) replicas)
      replicas;
    if not (Convergence.Notes.converged replicas) then exchange_round ()
  in
  exchange_round ();
  let issued = Convergence.Notes.updates_issued replicas in
  let lost = Convergence.Notes.lost_updates replicas in
  let appends_kept =
    match replicas with
    | r :: _ -> List.length (Convergence.Notes.notes r)
    | [] -> 0
  in
  (issued, lost, appends_kept)

let access_probe ~sites ~db_size ~updates_per_site =
  let replicas =
    Array.init sites (fun site -> Convergence.Access.create ~site ~db_size)
  in
  Array.iteri
    (fun i r ->
      for k = 0 to updates_per_site - 1 do
        Convergence.Access.update r (Oid.of_int (k mod db_size))
          (float_of_int ((i * 100) + k))
      done)
    replicas;
  let conflicts = ref 0 in
  let rec exchange_round () =
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b -> if i < j then conflicts := !conflicts + Convergence.Access.exchange a b)
          replicas)
      replicas;
    if not (Convergence.Access.converged (Array.to_list replicas)) then
      exchange_round ()
  in
  exchange_round ();
  (!conflicts, Convergence.Access.converged (Array.to_list replicas))

(* Lazy-group increments: total absolute deviation of the converged state
   from the exact sums. *)
let lazy_group_loss ~rule ~seed ~span =
  let params =
    { Params.default with db_size = 50; nodes = 3; tps = 5.; actions = 2 }
  in
  let profile = Profile.create ~update_kind:Profile.Increments ~actions:2 () in
  let sys = Lazy_group.create ~profile ~initial_value:0. ~rule params ~seed in
  Lazy_group.start sys;
  Clock.run_for (Lazy_group.base sys).Common.clock span;
  Lazy_group.stop_load sys;
  Lazy_group.force_sync sys;
  let store = (Lazy_group.base sys).Common.stores.(0) in
  Fstore.fold store ~init:0. ~f:(fun acc oid value _ ->
      acc +. Float.abs (value -. Lazy_group.expected_sum sys oid))

let experiment =
  {
    Experiment.id = "E9";
    title = "Section 6: convergence schemes and the lost-update problem";
    paper_ref = "Section 6 (Notes, Access, Oracle rules)";
    run =
      (fun ~quick ~seed ->
        let span = if quick then 30. else 120. in
        let sites = 5 and registers = 10 in
        let issued, lost, appends_kept = notes_probe ~sites ~registers in
        let table_notes =
          Table.create ~caption:"Lotus Notes model: 5 replicas, 10 registers"
            [
              Table.column ~align:Table.Left "update form";
              Table.column "issued";
              Table.column "lost";
            ]
        in
        Table.add_row table_notes
          [ "timestamped replace"; Table.cell_int issued; Table.cell_int lost ];
        Table.add_row table_notes
          [ "timestamped append"; Table.cell_int appends_kept; "0" ];
        let conflicts, access_converged =
          access_probe ~sites:4 ~db_size:20 ~updates_per_site:20
        in
        let table_access =
          Table.create ~caption:"Access version vectors: 4 replicas, 20 records"
            [
              Table.column ~align:Table.Left "metric";
              Table.column "value";
            ]
        in
        Table.add_row table_access
          [ "conflicts reported"; Table.cell_int conflicts ];
        Table.add_row table_access
          [ "converged"; (if access_converged then "yes" else "NO") ];
        let ts_loss = lazy_group_loss ~rule:Reconcile.Timestamp_priority ~seed ~span in
        let additive_loss = lazy_group_loss ~rule:Reconcile.Additive ~seed ~span in
        let table_rules =
          Table.create
            ~caption:
              "Lazy-group increments: absolute deviation from exact sums \
               after full sync"
            [
              Table.column ~align:Table.Left "reconciliation rule";
              Table.column "total |deviation|";
            ]
        in
        Table.add_row table_rules
          [ "timestamp-priority (lost updates)"; Table.cell_float ~digits:1 ts_loss ];
        Table.add_row table_rules
          [ "additive (commutative)"; Table.cell_float ~digits:1 additive_loss ];
        ( [ table_notes; table_access; table_rules ],
          [
            Experiment.near
              "Notes replace: lost = issued - registers (one winner each)"
              ~expected:(float_of_int (issued - registers))
              ~tolerance:0. (float_of_int lost);
            Experiment.near "Notes appends kept"
              ~expected:(float_of_int (sites * registers))
              ~tolerance:0. (float_of_int appends_kept);
            Experiment.holds "timestamp rule loses increments (>0)" (ts_loss > 0.);
            Experiment.near "additive rule is exact (deviation = 0)"
              ~expected:0. ~tolerance:1e-6 additive_loss;
          ],
          [
            "Convergence alone is not enough: the converged state should \
             reflect all committed transactions, which only the \
             commutative discipline achieves.";
          ] ));
  }
