(* Cross-cutting property tests: randomized scripts against reference
   models and end-to-end convergence invariants. *)

module Params = Dangers_analytic.Params
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Fstore = Dangers_storage.Store.Fstore
module Engine = Dangers_sim.Engine
module Clock = Dangers_runtime.Clock
module Network = Dangers_net.Network
module Delay = Dangers_runtime.Delay
module Update_log = Dangers_storage.Update_log
module Mode = Dangers_lock.Mode
module Lock_table = Dangers_lock.Lock_table
module Rng = Dangers_util.Rng
module Common = Dangers_replication.Common
module Lazy_group = Dangers_replication.Lazy_group
module Quorum = Dangers_replication.Quorum
module Acceptance = Dangers_core.Acceptance
module Two_tier = Dangers_core.Two_tier
module Connectivity = Dangers_net.Connectivity

let o n = Oid.of_int n

(* --- Network: no message is lost or duplicated, whatever the
   connectivity script does, once everyone reconnects. --- *)

let network_conservation =
  QCheck.Test.make ~name:"network: delivered exactly once after reconnect-all"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40)
              (pair (int_range 0 5) (int_range 0 3)))
    (fun script ->
      let engine = Engine.create () in
      let received = Hashtbl.create 64 in
      let network =
        Network.create ~clock:engine ~rng:(Rng.create ~seed:1) ~delay:Delay.Zero
          ~nodes:4
          ~deliver:(fun ~src:_ ~dst:_ id ->
            Hashtbl.replace received id (1 + Option.value ~default:0 (Hashtbl.find_opt received id)))
          ()
      in
      let sent = ref 0 in
      List.iteri
        (fun i (a, node) ->
          match a with
          | 0 | 1 | 2 ->
              let src = a and dst = (a + 1 + node) mod 4 in
              if src <> dst then begin
                Network.send network ~src ~dst i;
                incr sent;
                Hashtbl.replace received i
                  (Option.value ~default:0 (Hashtbl.find_opt received i))
              end
          | 3 -> Network.set_connected network ~node false
          | 4 -> Network.set_connected network ~node true
          | _ -> Engine.run engine ~until:(Engine.now engine +. 1.))
        script;
      for node = 0 to 3 do
        Network.set_connected network ~node true
      done;
      Engine.run engine;
      Network.messages_parked network = 0
      && Hashtbl.fold (fun _ n acc -> acc && n = 1) received true
      && Network.messages_delivered network = !sent)

(* --- Engine: fired callbacks come in non-decreasing time order and
   cancelled events never fire. --- *)

let engine_ordering =
  QCheck.Test.make ~name:"engine: time-ordered, cancelled never fire" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30)
              (pair (float_range 0. 100.) bool))
    (fun script ->
      let engine = Engine.create () in
      let fired = ref [] in
      let cancelled_fired = ref false in
      List.iteri
        (fun i (delay, cancel) ->
          let event =
            Engine.schedule engine ~delay (fun () ->
                if cancel then cancelled_fired := true
                else fired := (Engine.now engine, i) :: !fired)
          in
          if cancel then Engine.cancel engine event)
        script;
      Engine.run engine;
      let times = List.rev_map fst !fired in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      (not !cancelled_fired) && sorted times)

(* --- Update log vs a pure reference. --- *)

let update_log_matches_reference =
  QCheck.Test.make ~name:"update log: matches list reference" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_range 0 2))
    (fun script ->
      let log = Update_log.create () in
      let cursor = Update_log.register log in
      let appended = ref [] and read = ref [] in
      List.iteri
        (fun i action ->
          match action with
          | 0 | 1 ->
              Update_log.append log i;
              appended := i :: !appended
          | _ -> read := !read @ Update_log.read_new log cursor)
        script;
      read := !read @ Update_log.read_new log cursor;
      !read = List.rev !appended)

(* --- Lock table: same-resource X grants follow request order. --- *)

let lock_fifo =
  QCheck.Test.make ~name:"lock table: X grants are FIFO" ~count:200
    QCheck.(int_range 2 10)
    (fun waiters ->
      let table = Lock_table.create () in
      let order = ref [] in
      ignore
        (Lock_table.acquire table ~owner:0 ~resource:1 ~mode:Mode.X
           ~on_grant:(fun () -> ()));
      for owner = 1 to waiters do
        ignore
          (Lock_table.acquire table ~owner ~resource:1 ~mode:Mode.X
             ~on_grant:(fun () ->
               order := owner :: !order;
               Lock_table.release_all table ~owner))
      done;
      Lock_table.release_all table ~owner:0;
      List.rev !order = List.init waiters (fun i -> i + 1))

(* --- Lazy group: any assign workload converges after drain under
   timestamp priority. --- *)

let lazy_group_always_converges =
  QCheck.Test.make ~name:"lazy group: timestamp rule converges" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 15)
              (triple (int_range 0 2) (int_range 0 19) (float_range 0. 100.)))
    (fun txns ->
      let params =
        { Params.default with nodes = 3; db_size = 20; tps = 0.001; actions = 1 }
      in
      let sys = Lazy_group.create params ~seed:7 in
      List.iter
        (fun (node, obj, value) ->
          Lazy_group.submit sys ~node [ Op.Assign (o obj, value) ])
        txns;
      Common.drain (Lazy_group.base sys);
      let stores = (Lazy_group.base sys).Common.stores in
      Array.for_all (fun s -> Fstore.content_equal stores.(0) s) stores)

(* --- Two-tier: random increment workloads with random disconnect cycles
   converge to the exact sums (commutativity end to end). --- *)

let two_tier_exact_sums =
  QCheck.Test.make
    ~name:"two-tier: increments converge to exact sums through disconnects"
    ~count:25
    QCheck.(pair (int_range 5 40)
              (list_of_size (QCheck.Gen.int_range 1 20)
                 (triple (int_range 0 3) (int_range 0 19)
                    (float_range (-50.) 50.))))
    (fun (disconnected_time, txns) ->
      let params =
        {
          Params.default with
          nodes = 4;
          db_size = 20;
          tps = 0.5;
          actions = 1;
          time_between_disconnects = 10.;
          disconnected_time = float_of_int disconnected_time;
        }
      in
      let sys = Two_tier.create ~initial_value:100. ~base_nodes:2 params ~seed:11 in
      let clock = (Two_tier.base sys).Common.clock in
      let expected = Array.make 20 100. in
      (* Interleave submissions with engine progress so connectivity varies. *)
      List.iter
        (fun (node, obj, delta) ->
          expected.(obj) <- expected.(obj) +. delta;
          Two_tier.submit sys ~node [ Op.Increment (o obj, delta) ];
          Clock.run clock ~until:(Clock.now clock +. 3.))
        txns;
      Two_tier.quiesce_and_sync sys;
      let store = (Two_tier.base sys).Common.stores.(0) in
      Two_tier.converged sys
      && Two_tier.base_history_serializable sys
      && Array.for_all Fun.id
           (Array.mapi
              (fun i value -> Float.abs (Fstore.read store (o i) -. value) < 1e-6)
              expected))

(* --- Quorum monotonicity. --- *)

let quorum_monotone =
  QCheck.Test.make ~name:"quorum: adding an up node never hurts" ~count:300
    QCheck.(pair (int_range 1 12) (list_of_size (QCheck.Gen.return 12) bool))
    (fun (node, ups) ->
      let q = Quorum.majority ~n:12 in
      let up = Array.of_list ups in
      let more = Array.copy up in
      more.((node - 1) mod 12) <- true;
      (not (Quorum.can_write q ~up)) || Quorum.can_write q ~up:more)

(* --- Acceptance algebra. --- *)

let acceptance_all_conjunction =
  QCheck.Test.make ~name:"acceptance: All = conjunction" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 5)
              (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun pairs ->
      let outcomes =
        List.mapi
          (fun i (tentative, base) -> { Acceptance.oid = o i; tentative; base })
          pairs
      in
      let criteria =
        [ Acceptance.Non_negative; Acceptance.Within 1.; Acceptance.At_most_tentative ]
      in
      Acceptance.accept (Acceptance.All criteria) outcomes
      = List.for_all (fun c -> Acceptance.accept c outcomes) criteria)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      network_conservation;
      engine_ordering;
      update_log_matches_reference;
      lock_fifo;
      lazy_group_always_converges;
      two_tier_exact_sums;
      quorum_monotone;
      acceptance_all_conjunction;
    ]
