module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Generator = Dangers_workload.Generator
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Par_engine = Dangers_sim.Par_engine
module Observe = Dangers_sim.Observe
module Metrics = Dangers_sim.Metrics
module Fstore = Dangers_storage.Store.Fstore
module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp
module Op = Dangers_txn.Op
module Delay = Dangers_runtime.Delay
module Network = Dangers_net.Network
module Rng = Dangers_util.Rng
module Domain_pool = Dangers_util.Domain_pool
module Int_table = Dangers_util.Int_table
module Lock_table = Dangers_lock.Lock_table
module Mode = Dangers_lock.Mode
module Repl_stats = Repl_stats

(* Transaction identity: home node plus a home-local serial. Retries are
   new transactions (fresh tid), so a stale message can never be confused
   with the current attempt. [key] packs both into one int,
   [tid * nodes + home]: the owner id in the lock tables and the key of
   the int-keyed tables. *)
type owner = { home : int; tid : int; key : int }

type msg =
  | Lock_req of { owner : owner; oid : int }
  | Lock_grant of { owner : owner; oid : int }
  | Commit_apply of { owner : owner; writes : (int * float * Timestamp.t) list }
  | Release of { owner : owner }
  | Probe of { initiator : owner; subject : owner; ttl : int }
  | Probe_at of { initiator : owner; waiter : owner; oid : int; ttl : int }
  | Victim of { owner : owner }

type txn = {
  t_owner : owner;
  t_ops : Op.t array;
  t_started : float;
  mutable t_op : int;  (* index of the op being locked/worked *)
  t_wait : int array;  (* per site, the oid of the grant outstanding there, or -1 *)
  mutable t_left : int;  (* sites in [t_wait] with a grant outstanding *)
  mutable t_deadline : Engine.event_id option;
  mutable t_done : bool;
}

type node = {
  id : int;
  engine : Engine.t;
  metrics : Metrics.t;
  stats : Repl_stats.t;
  store : Fstore.t;
  lamport : Timestamp.Clock.t;
  locks : Lock_table.t;  (* resources are oids, owners are [owner.key] *)
  active : txn Int_table.t;  (* home transactions by tid *)
  mutable next_tid : int;
  gen_rng : Rng.t;
  delay_rng : Rng.t;
  retry_rng : Rng.t;
}

type t = {
  params : Params.t;
  profile : Profile.t;
  delay : Delay.t;
  lookahead : float;
  faults : Network.faults option;
  nodes : node array;
  par : msg Par_engine.t;
  mutable generators : Generator.t list;
}

let scheme_name = "par-eager-group"

let node_count t = Array.length t.nodes

let lock_timeout t =
  (* Generous next to any plausible wait chain: a probe round trip is
     2 x lookahead and a transaction's own work is actions x action_time.
     Purely a liveness backstop for cycles formed between probes. *)
  25.
  *. ((float_of_int t.params.Params.actions *. t.params.Params.action_time)
     +. (4. *. t.lookahead))

let send_delay t node = Float.max t.lookahead (Delay.sample t.delay node.delay_rng)

let owner_of_key t key =
  let n = node_count t in
  { home = key mod n; tid = key / n; key }

(* --- protocol -------------------------------------------------------- *)

let rec send t ~src ~dst msg =
  if src = dst then
    (* Home-local protocol step: decouple from the current callback (the
       lock table may be mid-mutation) but stay at the same simulated
       time. *)
    ignore
      (Engine.schedule t.nodes.(src).engine ~delay:0. (fun () ->
           handle t ~src ~dst msg))
  else Par_engine.post t.par ~src ~dst ~delay:(send_delay t t.nodes.(src)) msg

(* A lock at [site] became grantable for [owner]: tell its home. *)
and granted t site ~oid owner =
  if owner.home = site.id then on_granted t ~site:site.id ~oid owner
  else send t ~src:site.id ~dst:owner.home (Lock_grant { owner; oid })

(* Request [oid] at [site]; true when granted at once. A queued request
   counts a wait and starts a probe, and its grant reaches [granted]. *)
and request t site ~owner ~mode oid =
  match
    Lock_table.acquire site.locks ~owner:owner.key ~resource:oid ~mode
      ~on_grant:(fun () -> granted t site ~oid owner)
  with
  | Lock_table.Granted -> true
  | Lock_table.Queued ->
      Metrics.incr site.stats.Repl_stats.waits;
      chase t site ~initiator:owner ~waiter:owner ~ttl:(2 * node_count t);
      false

(* Probes: initiated where a request blocks, chased from the subject's
   home to wherever it is waiting, and on through that wait's blockers —
   the lock's conflicting holders and the conflicting waiters queued ahead
   of it. A cycle returns to the initiator, which becomes the victim. *)
and chase t site ~initiator ~waiter ~ttl =
  List.iter
    (fun key ->
      if key = initiator.key then
        send t ~src:site.id ~dst:initiator.home (Victim { owner = initiator })
      else begin
        Metrics.incr site.stats.Repl_stats.deadlock_probes;
        let subject = owner_of_key t key in
        send t ~src:site.id ~dst:subject.home (Probe { initiator; subject; ttl })
      end)
    (Lock_table.blockers site.locks ~owner:waiter.key)

and handle t ~src ~dst msg =
  let node = t.nodes.(dst) in
  match msg with
  | Lock_req { owner; oid } ->
      if request t node ~owner ~mode:Mode.X oid then granted t node ~oid owner
  | Lock_grant { owner; oid } ->
      (* [src] is the granting site. *)
      if owner.home = dst then on_granted t ~site:src ~oid owner
  | Commit_apply { owner; writes } ->
      List.iter
        (fun (oid, value, stamp) ->
          Timestamp.Clock.witness node.lamport stamp;
          match Fstore.apply_if_newer node.store (Oid.of_int oid) value stamp with
          | `Applied -> Metrics.incr node.stats.Repl_stats.replica_applied
          | `Stale -> Metrics.incr node.stats.Repl_stats.stale_discards)
        writes;
      Lock_table.release_all node.locks ~owner:owner.key
  | Release { owner } -> Lock_table.release_all node.locks ~owner:owner.key
  | Probe { initiator; subject; ttl } -> (
      if ttl > 0 && subject.home = dst then
        match Int_table.find_opt node.active subject.tid with
        | None -> ()
        | Some txn ->
            if not txn.t_done then begin
              (* Home first, then the other sites in ascending order. *)
              let probe site =
                let oid = txn.t_wait.(site) in
                if oid >= 0 then
                  send t ~src:dst ~dst:site
                    (Probe_at { initiator; waiter = subject; oid; ttl = ttl - 1 })
              in
              probe dst;
              for site = 0 to node_count t - 1 do
                if site <> dst then probe site
              done
            end)
  | Probe_at { initiator; waiter; oid; ttl } ->
      if
        ttl > 0
        && Lock_table.waiting_resource node.locks ~owner:waiter.key = Some oid
      then chase t node ~initiator ~waiter ~ttl:(ttl - 1)
  | Victim { owner } -> (
      if owner.home = dst then
        match Int_table.find_opt node.active owner.tid with
        | None -> ()
        | Some txn ->
            (* Still blocked: a genuine cycle. Already granted everything:
               the probe is stale; let it run. *)
            if (not txn.t_done) && txn.t_left > 0 then begin
              Metrics.incr node.stats.Repl_stats.deadlocks;
              abort_and_retry t node txn
            end)

and on_granted t ~site ~oid owner =
  let node = t.nodes.(owner.home) in
  match Int_table.find_opt node.active owner.tid with
  | Some txn when not txn.t_done ->
      if txn.t_wait.(site) = oid then begin
        txn.t_wait.(site) <- -1;
        txn.t_left <- txn.t_left - 1;
        if txn.t_left = 0 then work t node txn
      end
      else
        (* No such request is outstanding: acting on it would advance the
           transaction past an op whose locks are not all held. *)
        Dangers_obs.Warnings.warn ~key:"par_eager.stray_grant"
          (Printf.sprintf
             "Par_eager invariant violation: transaction %d at node %d got a \
              grant for object %d from site %d that it is not awaiting; \
              ignoring it"
             owner.tid owner.home oid site)
  | Some _ | None ->
      (* A grant for a dead transaction. Its abort sent [site] a Release,
         but a non-FIFO delay model can deliver that Release before the
         Lock_req it should undo, and the lock would then stay held for
         good. Release again: a duplicate is a no-op. *)
      if site <> node.id then
        send t ~src:node.id ~dst:site (Release { owner })

(* The op's locks are all held: charge Action_Time, then move on. *)
and work t node txn =
  ignore
    (Engine.schedule node.engine ~delay:t.params.Params.action_time (fun () ->
         if not txn.t_done then next_op t node txn))

and next_op t node txn =
  txn.t_op <- txn.t_op + 1;
  if txn.t_op >= Array.length txn.t_ops then commit t node txn
  else begin
    let op = txn.t_ops.(txn.t_op) in
    let oid = Oid.to_int (Op.oid op) in
    if Op.is_update op then begin
      (* Update-everywhere: X at every replica, requested in one scatter.
         Remote requests are outstanding immediately; the local one only
         if it queued. *)
      let n = node_count t in
      let local = request t node ~owner:txn.t_owner ~mode:Mode.X oid in
      if not local then txn.t_wait.(node.id) <- oid;
      txn.t_left <- (if local then n - 1 else n);
      for dst = 0 to n - 1 do
        if dst <> node.id then begin
          txn.t_wait.(dst) <- oid;
          send t ~src:node.id ~dst (Lock_req { owner = txn.t_owner; oid })
        end
      done;
      if txn.t_left = 0 then work t node txn
    end
    else begin
      (* Reads touch only the local replica (the model ignores reads). *)
      if request t node ~owner:txn.t_owner ~mode:Mode.S oid then work t node txn
      else begin
        txn.t_wait.(node.id) <- oid;
        txn.t_left <- 1
      end
    end
  end

and commit t node txn =
  finish_txn t node txn;
  let writes =
    Array.to_list txn.t_ops
    |> List.filter Op.is_update
    |> List.map (fun op ->
           let oid = Op.oid op in
           let value =
             Op.apply ~read:(Fstore.read node.store)
               ~current:(Fstore.read node.store oid) op
           in
           let stamp = Timestamp.Clock.tick node.lamport in
           Fstore.write node.store oid value stamp;
           (Oid.to_int oid, value, stamp))
  in
  Lock_table.release_all node.locks ~owner:txn.t_owner.key;
  broadcast_apply t node ~owner:txn.t_owner ~writes;
  Metrics.incr node.stats.Repl_stats.commits;
  Dangers_util.Stats.add (Metrics.txn_duration node.metrics)
    (Engine.now node.engine -. txn.t_started)

and broadcast_apply t node ~owner ~writes =
  let apply = Commit_apply { owner; writes } in
  for dst = 0 to node_count t - 1 do
    if dst <> node.id then begin
      let post ?(extra = 0.) m =
        Par_engine.post t.par ~src:node.id ~dst
          ~delay:(send_delay t node +. Float.max 0. extra)
          m
      in
      match t.faults with
      | None -> post apply
      | Some faults ->
          if faults.Network.blocked ~src:node.id ~dst then begin
            (* Partitioned link: the update is lost to this replica, but
               its locks must still release — the control plane is
               reliable (see the mli). *)
            Metrics.incr node.stats.Repl_stats.apply_dropped;
            post (Release { owner })
          end
          else begin
            match faults.Network.on_transmit ~src:node.id ~dst with
            | Network.Pass -> post apply
            | Network.Drop ->
                Metrics.incr node.stats.Repl_stats.apply_dropped;
                post (Release { owner })
            | Network.Duplicate ->
                post apply;
                post apply
            | Network.Delay_extra extra -> post ~extra apply
          end
    end
  done

and finish_txn _t node txn =
  txn.t_done <- true;
  (match txn.t_deadline with
  | Some ev ->
      Engine.cancel node.engine ev;
      txn.t_deadline <- None
  | None -> ());
  Int_table.remove node.active txn.t_owner.tid

and abort_and_retry t node txn =
  finish_txn t node txn;
  Metrics.incr node.stats.Repl_stats.restarts;
  Lock_table.release_all node.locks ~owner:txn.t_owner.key;
  for dst = 0 to node_count t - 1 do
    if dst <> node.id then send t ~src:node.id ~dst (Release { owner = txn.t_owner })
  done;
  let backoff =
    let duration =
      float_of_int t.params.Params.actions *. t.params.Params.action_time
    in
    (0.5 +. Rng.float node.retry_rng 1.0) *. duration
  in
  ignore
    (Engine.schedule node.engine ~delay:backoff (fun () ->
         start_txn t node txn.t_ops))

and start_txn t node ops =
  let tid = node.next_tid in
  node.next_tid <- tid + 1;
  let owner = { home = node.id; tid; key = (tid * node_count t) + node.id } in
  let txn =
    {
      t_owner = owner;
      t_ops = ops;
      t_started = Engine.now node.engine;
      t_op = -1;
      t_wait = Array.make (node_count t) (-1);
      t_left = 0;
      t_deadline = None;
      t_done = false;
    }
  in
  Int_table.add node.active tid txn;
  txn.t_deadline <-
    Some
      (Engine.schedule node.engine ~delay:(lock_timeout t) (fun () ->
           if not txn.t_done then
             if txn.t_left > 0 then begin
               Metrics.incr node.stats.Repl_stats.timeout_aborts;
               abort_and_retry t node txn
             end
             else
               (* Working, not blocked; no cycle can involve it. *)
               txn.t_deadline <- None));
  next_op t node txn

(* --- construction and driving --------------------------------------- *)

let create ?profile ?(initial_value = 0.) ?delay ?faults params ~seed =
  Params.validate params;
  let profile =
    match profile with Some p -> p | None -> Profile.of_params params
  in
  let delay =
    match delay with
    | Some d -> d
    | None -> Delay.Constant (Float.max params.Params.message_delay 0.05)
  in
  Delay.validate delay;
  let lookahead = Delay.min_bound delay in
  if not (lookahead > 0.) then
    invalid_arg
      (Format.asprintf
         "Par_eager.create: delay model %a has a zero minimum transmit \
          delay, so it admits no conservative lookahead"
         Delay.pp delay);
  let obs = Observe.ambient_obs () in
  let par = Par_engine.create ?obs ~parts:params.Params.nodes ~lookahead () in
  let root = Rng.create ~seed in
  let nodes =
    Array.init params.Params.nodes (fun id ->
        let rng = Rng.split root in
        let engine = Par_engine.engine par id in
        let metrics = Metrics.of_engine engine in
        Option.iter (Metrics.export metrics) obs;
        let node =
          {
            id;
            engine;
            metrics;
            stats = Repl_stats.create metrics;
            store =
              Fstore.create ~db_size:params.Params.db_size ~init:(fun _ ->
                  initial_value);
            lamport = Timestamp.Clock.create ~node:id;
            locks = Lock_table.create ();
            active = Int_table.create 16;
            next_tid = 0;
            gen_rng = Rng.split rng;
            delay_rng = Rng.split rng;
            retry_rng = Rng.split rng;
          }
        in
        node)
  in
  let t =
    { params; profile; delay; lookahead; faults; nodes; par; generators = [] }
  in
  Par_engine.set_handler par (fun ~src ~dst ~time msg ->
      ignore
        (Engine.schedule_at (Par_engine.engine par dst) ~time (fun () ->
             handle t ~src ~dst msg)));
  t

let start t =
  if t.generators <> [] then invalid_arg "Par_eager.start: already started";
  t.generators <-
    Array.to_list
      (Array.map
         (fun node ->
           Generator.start ~clock:node.engine ~rng:node.gen_rng
             ~tps:t.params.Params.tps ~profile:t.profile
             ~db_size:t.params.Params.db_size
             ~submit:(fun ops -> start_txn t node (Array.of_list ops)))
         t.nodes)

let stop_load t =
  List.iter Generator.stop t.generators;
  t.generators <- []

let with_pool ~domains f =
  if domains < 1 then invalid_arg "Par_eager: domains must be >= 1";
  if domains = 1 then f None
  else begin
    let pool = Domain_pool.create ~workers:domains in
    Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () ->
        f (Some pool))
  end

let measure ?(domains = 1) t ~warmup ~span =
  with_pool ~domains (fun pool ->
      Observe.profiled "warmup" (fun () ->
          Par_engine.run ?pool t.par ~until:warmup);
      Array.iter (fun node -> Metrics.start_window node.metrics) t.nodes;
      Observe.profiled "measured" (fun () ->
          Par_engine.run ?pool t.par ~until:(warmup +. span)))

let quiesce ?(domains = 1) ?(max_events = 200_000_000) t =
  stop_load t;
  with_pool ~domains (fun pool -> Par_engine.run ?pool ~max_events t.par);
  Array.iter
    (fun node ->
      let held = Lock_table.grants_outstanding node.locks in
      if held > 0 then
        failwith
          (Printf.sprintf "Par_eager.quiesce: node %d holds %d locks after draining"
             node.id held))
    t.nodes

let summary t =
  let sum counter =
    Array.fold_left
      (fun acc node -> acc + Metrics.count node.metrics (counter node.stats))
      0 t.nodes
  in
  let window = Metrics.window_elapsed t.nodes.(0).metrics in
  let rate count =
    if window <= 0. then 0. else float_of_int count /. window
  in
  let commits = sum (fun s -> s.Repl_stats.commits) in
  let waits = sum (fun s -> s.Repl_stats.waits) in
  let deadlocks = sum (fun s -> s.Repl_stats.deadlocks) in
  let restarts = sum (fun s -> s.Repl_stats.restarts) in
  let duration_total, duration_count =
    Array.fold_left
      (fun (total, count) node ->
        let s = Metrics.txn_duration node.metrics in
        (total +. Dangers_util.Stats.total s, count + Dangers_util.Stats.count s))
      (0., 0) t.nodes
  in
  {
    Repl_stats.scheme = scheme_name;
    window;
    commits;
    waits;
    deadlocks;
    restarts;
    reconciliations = 0;
    commit_rate = rate commits;
    wait_rate = rate waits;
    deadlock_rate = rate deadlocks;
    reconciliation_rate = 0.;
    mean_duration =
      (if duration_count = 0 then 0.
       else duration_total /. float_of_int duration_count);
  }

let diagnostics t =
  let sum counter =
    Array.fold_left (fun acc node -> acc + Metrics.total (counter node.stats)) 0 t.nodes
  in
  [
    ("windows", float_of_int (Par_engine.windows t.par));
    ("lookahead_stalls", float_of_int (Par_engine.stalls t.par));
    ("null_messages", float_of_int (Par_engine.null_messages t.par));
    ("channel_posts", float_of_int (Par_engine.posts_total t.par));
    ("deadlock_probes", float_of_int (sum (fun s -> s.Repl_stats.deadlock_probes)));
    ("timeout_aborts", float_of_int (sum (fun s -> s.Repl_stats.timeout_aborts)));
    ("apply_dropped", float_of_int (sum (fun s -> s.Repl_stats.apply_dropped)));
  ]

let converged t =
  let reference = t.nodes.(0).store in
  Array.for_all (fun node -> Fstore.content_equal reference node.store) t.nodes

let store_fingerprint t idx =
  if idx < 0 || idx >= Array.length t.nodes then
    invalid_arg "Par_eager.store_fingerprint: bad node index";
  let store = t.nodes.(idx).store in
  Fstore.fold store ~init:[] ~f:(fun acc _ value stamp ->
      (value, stamp.Timestamp.counter) :: acc)
  |> List.rev

let lookahead t = t.lookahead
let events_fired t = Par_engine.events_fired t.par
