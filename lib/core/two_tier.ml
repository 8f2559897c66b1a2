module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Fstore = Dangers_storage.Store.Fstore
module Timestamp = Dangers_storage.Timestamp
module Executor = Dangers_txn.Executor
module Lock_table = Dangers_lock.Lock_table
module Clock = Dangers_runtime.Clock
module Metrics = Dangers_sim.Metrics
module Rng = Dangers_util.Rng
module Repl_stats = Dangers_replication.Repl_stats
module Common = Dangers_replication.Common
module Obs = Dangers_obs.Metrics

type slave_update = { su_oid : Oid.t; su_value : float; su_stamp : Timestamp.t }

type mobile_state = {
  record : Mobile_node.t;
  mutable connected : bool;
  mutable syncing : bool;
  mutable needs_refresh : bool;
}

type t = {
  common : Common.base;
  base_count : int;
  acceptance : Acceptance.t;
  owner : int array; (* node mastering each object *)
  base_executor : Executor.t; (* the shared base-tier lock space *)
  mobiles : mobile_state array; (* node id = base_count + index *)
  mutable network : slave_update list Network.t option;
  mutable fleet : Connectivity.fleet option;
  mutable rejections_rev : (Tentative.t * string) list;
  mutable sync_listeners : (mobile:int -> unit) list;
  replayed : float array;
      (* serial replay of the committed base transactions, in commit order *)
  unsafe_skip_acceptance : bool;
  reconcile_lag : Obs.histogram option;
      (* local-commit to base-replay delay of every replayed tentative txn *)
}

let base t = t.common
let base_count t = t.base_count
let owner_of t oid = t.owner.(Oid.to_int oid)

let mobile t ~node =
  if node < t.base_count || node >= t.base_count + Array.length t.mobiles then
    invalid_arg "Two_tier.mobile: not a mobile node id";
  t.mobiles.(node - t.base_count).record

let network t =
  match t.network with Some n -> n | None -> assert false

let is_mobile t node = node >= t.base_count

(* The authoritative copy of an object lives at its owner: a base replica
   store, or a mobile node's master-version store. *)
let master_store t oid =
  let owner = owner_of t oid in
  if owner < t.base_count then t.common.Common.stores.(owner)
  else Mobile_node.master_store t.mobiles.(owner - t.base_count).record

let deliver t ~src:_ ~dst updates =
  Metrics.incr t.common.Common.stats.Repl_stats.replica_txns;
  List.iter
    (fun u ->
      Timestamp.Clock.witness t.common.Common.clocks.(dst) u.su_stamp;
      let outcome =
        if is_mobile t dst then
          Mobile_node.apply_master_update
            t.mobiles.(dst - t.base_count).record
            u.su_oid u.su_value u.su_stamp
        else
          Fstore.apply_if_newer t.common.Common.stores.(dst) u.su_oid u.su_value
            u.su_stamp
      in
      match outcome with
      | `Applied -> Metrics.incr t.common.Common.stats.Repl_stats.replica_applied
      | `Stale -> Metrics.incr t.common.Common.stats.Repl_stats.stale_discards)
    updates

(* One lazy slave transaction per node that does not master everything in
   the batch (Figure 1's one-lazy-transaction-per-replica-node). *)
let propagate_batch t ~src updates =
  for dst = 0 to t.common.Common.params.Params.nodes - 1 do
    let relevant =
      List.filter (fun (u : slave_update) -> owner_of t u.su_oid <> dst) updates
    in
    if relevant <> [] && dst <> src then
      Network.send (network t) ~src ~dst relevant
    else if relevant <> [] && dst = src then
      (* The sender applies its own share directly. *)
      deliver t ~src ~dst relevant
  done

(* Prospective results of re-executing [ops] against current master copies,
   without writing: op order respected, later ops see earlier ones' values. *)
let prospective_results t ops =
  let scratch : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let current oid =
    match Hashtbl.find_opt scratch (Oid.to_int oid) with
    | Some v -> v
    | None -> Fstore.read (master_store t oid) oid
  in
  List.iter
    (fun op ->
      if Op.is_update op then begin
        let oid = Op.oid op in
        let value = Op.apply ~read:current ~current:(current oid) op in
        Hashtbl.replace scratch (Oid.to_int oid) value
      end)
    ops;
  Hashtbl.fold (fun i v acc -> (Oid.of_int i, v) :: acc) scratch []
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

(* Apply a committed base transaction to the serial replay, with the same
   op semantics the master copies were written with. *)
let replay_committed t ops =
  let read oid = t.replayed.(Oid.to_int oid) in
  List.iter
    (fun op ->
      if Op.is_update op then begin
        let i = Oid.to_int (Op.oid op) in
        t.replayed.(i) <- Op.apply ~read ~current:t.replayed.(i) op
      end)
    ops

let run_base_transaction t ?(acceptance = Acceptance.Always)
    ?(tentative_results = []) ~ops ~on_done () =
  let common = t.common in
  let steps = Executor.steps_of_ops ops in
  Executor.run t.base_executor ~steps:(fun () -> steps)
    ~on_commit:(fun ~started ->
      let results = prospective_results t ops in
      (* Deliberate fault for the scheme fuzzer: trust the mobile's
         tentative results blindly instead of the base re-execution —
         exactly the delusion §7's acceptance test exists to prevent.
         The invariant checker must catch this. *)
      let results =
        if not t.unsafe_skip_acceptance then results
        else
          List.map
            (fun (oid, base_value) ->
              match
                List.find_opt (fun (o, _) -> Oid.equal o oid) tentative_results
              with
              | Some (_, tentative) -> (oid, tentative)
              | None -> (oid, base_value))
            results
      in
      let outcomes =
        List.map
          (fun (oid, base_value) ->
            let tentative =
              match
                List.find_opt (fun (o, _) -> Oid.equal o oid) tentative_results
              with
              | Some (_, v) -> v
              | None -> base_value
            in
            { Acceptance.oid; tentative; base = base_value })
          results
      in
      match
        (if t.unsafe_skip_acceptance then None
         else Acceptance.explain acceptance outcomes)
      with
      | None ->
          let updates =
            List.map
              (fun (oid, value) ->
                let owner = owner_of t oid in
                let stamp = Timestamp.Clock.tick common.Common.clocks.(owner) in
                Fstore.write (master_store t oid) oid value stamp;
                { su_oid = oid; su_value = value; su_stamp = stamp })
              results
          in
          (match updates with
          | [] -> ()
          | first :: _ ->
              propagate_batch t ~src:(owner_of t first.su_oid) updates);
          replay_committed t ops;
          Common.commit_duration common ~started;
          on_done (`Committed results)
      | Some reason ->
          (* The base transaction aborts: no master copy changes. *)
          on_done (`Rejected reason))

let host_of t mobile_index = mobile_index mod t.base_count

let finish_sync t mobile_index =
  let m = t.mobiles.(mobile_index) in
  m.syncing <- false;
  if m.connected then begin
    Mobile_node.refresh_from m.record
      t.common.Common.stores.(host_of t mobile_index);
    m.needs_refresh <- false;
    Metrics.incr t.common.Common.stats.Repl_stats.syncs;
    List.iter (fun listener -> listener ~mobile:mobile_index) t.sync_listeners
  end
  else m.needs_refresh <- true

let rec replay t mobile_index = function
  | [] -> finish_sync t mobile_index
  | txn :: rest ->
      run_base_transaction t ~acceptance:txn.Tentative.acceptance
        ~tentative_results:txn.Tentative.tentative_results
        ~ops:txn.Tentative.ops
        ~on_done:(fun result ->
          let stats = t.common.Common.stats in
          (match t.reconcile_lag with
          | None -> ()
          | Some h ->
              Obs.observe h
                (Clock.now t.common.Common.clock -. txn.Tentative.committed_at));
          (match result with
          | `Committed _ -> Metrics.incr stats.Repl_stats.tentative_accepted
          | `Rejected reason ->
              Metrics.incr stats.Repl_stats.tentative_rejected;
              Metrics.incr stats.Repl_stats.reconciliations;
              t.rejections_rev <- (txn, reason) :: t.rejections_rev);
          replay t mobile_index rest)
        ()

(* Step 2: push the mobile's mastered objects so base replicas are not
   behind the master. Idempotent (slaves apply-if-newer). *)
let send_mobile_mastered t mobile_index =
  let node = t.base_count + mobile_index in
  let store = Mobile_node.master_store t.mobiles.(mobile_index).record in
  let updates = ref [] in
  Array.iteri
    (fun i owner ->
      if owner = node then begin
        let oid = Oid.of_int i in
        updates :=
          {
            su_oid = oid;
            su_value = Fstore.read store oid;
            su_stamp = Fstore.stamp store oid;
          }
          :: !updates
      end)
    t.owner;
  if !updates <> [] then propagate_batch t ~src:node !updates

let start_sync t mobile_index =
  let m = t.mobiles.(mobile_index) in
  if not m.syncing then begin
    let pending = Mobile_node.take_pending m.record in
    if pending <> [] || m.needs_refresh then begin
      m.syncing <- true;
      send_mobile_mastered t mobile_index;
      replay t mobile_index pending
    end
    else if m.connected then
      (* Nothing to replay or refresh: the sync is already complete. It
         counts in no metric, but a listener waiting on it must hear. *)
      List.iter (fun listener -> listener ~mobile:mobile_index) t.sync_listeners
  end

let on_connectivity t ~node ~connected =
  if is_mobile t node then begin
    let mobile_index = node - t.base_count in
    let m = t.mobiles.(mobile_index) in
    m.connected <- connected;
    if connected then start_sync t mobile_index
  end

let scope_ok t ~node ops =
  List.for_all
    (fun op ->
      let owner = owner_of t (Op.oid op) in
      owner < t.base_count || owner = node)
    ops

type submit_result =
  [ `Committed of (Oid.t * float) list
  | `Rejected of string
  | `Tentative
  | `Scope_violation ]

let submit_with t ~node ~on_result ops =
  let stats = t.common.Common.stats in
  if not (scope_ok t ~node ops) then begin
    Metrics.incr stats.Repl_stats.scope_violations;
    on_result `Scope_violation
  end
  else if not (is_mobile t node) then
    run_base_transaction t ~ops
      ~on_done:(fun result -> on_result (result :> submit_result))
      ()
  else begin
    let m = t.mobiles.(node - t.base_count) in
    if m.connected && not m.syncing then
      run_base_transaction t ~ops
        ~on_done:(fun result -> on_result (result :> submit_result))
        ()
    else begin
      Metrics.incr stats.Repl_stats.tentative_commits;
      ignore
        (Mobile_node.run_tentative m.record ~ops ~acceptance:t.acceptance
           ~now:(Clock.now t.common.Common.clock));
      on_result `Tentative
    end
  end

let submit t ~node ops = submit_with t ~node ~on_result:ignore ops

let on_sync t listener = t.sync_listeners <- listener :: t.sync_listeners

let master_value t oid = Fstore.read (master_store t oid) oid

let create ?obs ?clock ?profile ?(initial_value = 0.)
    ?(acceptance = Acceptance.Always) ?(delay = Delay.Zero) ?faults ?mobility
    ?(mobile_owned_per_node = 0) ?(unsafe_skip_acceptance = false) ~base_nodes
    params ~seed =
  if base_nodes < 1 || base_nodes > params.Params.nodes then
    invalid_arg "Two_tier.create: base_nodes out of range";
  let mobile_total = params.Params.nodes - base_nodes in
  if mobile_owned_per_node < 0 then
    invalid_arg "Two_tier.create: negative mobile_owned_per_node";
  if mobile_owned_per_node * mobile_total >= params.Params.db_size then
    invalid_arg "Two_tier.create: mobile-owned blocks exceed the database";
  let common = Common.make ?obs ?clock ?profile ~initial_value params ~seed in
  let obs = common.Common.obs in
  let owner =
    Array.init params.Params.db_size (fun i ->
        let tail = params.Params.db_size - (mobile_owned_per_node * mobile_total) in
        if i < tail then i mod base_nodes
        else base_nodes + ((i - tail) / mobile_owned_per_node))
  in
  let base_executor =
    Common.executor common
      ~locks:(Lock_table.create ?obs ())
      ~retry_rng:(Rng.split common.Common.rng)
  in
  let mobiles =
    Array.init mobile_total (fun i ->
        {
          record =
            Mobile_node.create ~node:(base_nodes + i)
              ~db_size:params.Params.db_size ~initial_value;
          connected = true;
          syncing = false;
          needs_refresh = false;
        })
  in
  let t =
    {
      common;
      base_count = base_nodes;
      acceptance;
      owner;
      base_executor;
      mobiles;
      network = None;
      fleet = None;
      rejections_rev = [];
      sync_listeners = [];
      replayed = Array.make params.Params.db_size initial_value;
      unsafe_skip_acceptance;
      reconcile_lag =
        Option.map
          (fun registry ->
            (* Reconciliation lag is dominated by the disconnect window —
               hours of simulated time, not the sub-second latency spread
               the default buckets cover. *)
            Obs.histogram
              ~buckets:
                [| 0.1; 1.; 10.; 60.; 300.; 1800.; 3600.; 14400.; 86400. |]
              registry "two_tier.reconcile_lag_seconds")
          obs;
    }
  in
  (match obs with
  | None -> ()
  | Some registry ->
      (* Mobile-tier replication lag, read at snapshot time: queue depths
         and the age of each node's oldest unreplayed tentative txn. The
         per-mobile breakdown is capped so a thousand-mobile sweep cannot
         bloat every snapshot. *)
      let detailed = min mobile_total 64 in
      Obs.register_source registry (fun () ->
          let now = Clock.now common.Common.clock in
          let depth_sum = ref 0 and oldest_age = ref 0. in
          let per_mobile = ref [] in
          for i = mobile_total - 1 downto 0 do
            let record = t.mobiles.(i).record in
            let depth = Mobile_node.pending_count record in
            let age =
              match Mobile_node.pending record with
              | [] -> 0.
              | oldest :: _ -> Float.max 0. (now -. oldest.Tentative.committed_at)
            in
            depth_sum := !depth_sum + depth;
            oldest_age := Float.max !oldest_age age;
            if i < detailed then
              per_mobile :=
                Obs.Gauge
                  ( Printf.sprintf "two_tier.mobile.%02d.tentative_queue_depth" i,
                    float_of_int depth )
                :: Obs.Gauge
                     ( Printf.sprintf
                         "two_tier.mobile.%02d.oldest_tentative_age_seconds" i,
                       age )
                :: !per_mobile
          done;
          Obs.Gauge
            ("two_tier.tentative_queue_depth", float_of_int !depth_sum)
          :: Obs.Gauge ("two_tier.oldest_tentative_age_seconds", !oldest_age)
          :: !per_mobile));
  let net =
    Network.create ?obs ?faults ~clock:common.Common.clock
      ~rng:(Rng.split common.Common.rng) ~delay ~nodes:params.Params.nodes
      ~deliver:(fun ~src ~dst u -> deliver t ~src ~dst u) ()
  in
  Network.on_connectivity_change net (fun ~node ~connected ->
      on_connectivity t ~node ~connected);
  t.network <- Some net;
  let spec =
    match mobility with
    | Some spec -> spec
    | None ->
        Connectivity.day_cycle ~connected:params.Params.time_between_disconnects
          ~disconnected:params.Params.disconnected_time
  in
  if mobile_total > 0 && not (Connectivity.always_connected spec) then
    t.fleet <-
      Some
        (Connectivity.fleet ~clock:common.Common.clock ~rng:common.Common.rng
           ~spec
           ~nodes:(List.init mobile_total (fun i -> base_nodes + i))
           ~set_connected:(Network.set_connected net));
  t

let start t = Common.start_generators t.common ~submit:(fun ~node ops -> submit t ~node ops)
let stop_load t = Common.stop_generators t.common

let summary t = Common.summary ~scheme:"two-tier" t.common

let set_node_connected t ~node state = Network.set_connected (network t) ~node state
let flush_node t ~node = Network.flush_node (network t) ~node

let tentative_accepted t =
  Metrics.total t.common.Common.stats.Repl_stats.tentative_accepted

let tentative_rejected t =
  Metrics.total t.common.Common.stats.Repl_stats.tentative_rejected

let rejection_log t = List.rev t.rejections_rev

let connect_all t =
  Option.iter Connectivity.stop_fleet t.fleet;
  Array.iteri
    (fun i _ -> Network.set_connected (network t) ~node:(t.base_count + i) true)
    t.mobiles

let converged t =
  let reference = t.common.Common.stores.(0) in
  let bases_equal =
    Array.for_all
      (fun store -> Fstore.content_equal reference store)
      (Array.sub t.common.Common.stores 0 t.base_count)
  in
  bases_equal
  && Array.for_all
       (fun m ->
         Fstore.content_equal reference (Mobile_node.master_store m.record)
         && Fstore.content_equal reference (Mobile_node.tentative_store m.record)
         && Mobile_node.pending_count m.record = 0)
       t.mobiles

(* Single-copy serializability of the base tier: replaying the committed
   base transactions in commit order on a fresh database must land exactly
   on the master state. 2PL with commit-ordered application makes this an
   invariant; the check is the §7 claim "base transactions execute with
   single-copy serializability" made executable. The replay runs
   incrementally as each transaction commits, so the history costs
   O(db_size) memory rather than one entry per commit. *)
let base_history_serializable t =
  let ok = ref true in
  Array.iteri
    (fun i expected ->
      let oid = Oid.of_int i in
      let actual = Fstore.read (master_store t oid) oid in
      if Float.abs (actual -. expected) > 1e-9 then ok := false)
    t.replayed;
  !ok

let quiesce_and_sync t =
  stop_load t;
  connect_all t;
  Common.drain t.common;
  (* A sync that raced a disconnect may have left a refresh pending. *)
  Array.iteri (fun i _ -> start_sync t i) t.mobiles;
  Array.iteri (fun i _ -> finish_sync t i) t.mobiles;
  Common.drain t.common
