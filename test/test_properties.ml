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

(* --- Engine vs a sorted-list reference: the exact fired sequence, so
   callbacks come in (time, seq) order and cancelled events never fire.
   The delays mostly come from a small alphabet, so events share delays
   (the engine's FIFO lanes) and times (ties across lanes and the
   heap). --- *)

type delay = Fixed of int | Random of float

type op =
  | Schedule of delay * delay list (* the callback schedules the list *)
  | Schedule_at of delay * delay list (* at now + delay, on the heap *)
  | Cancel of int (* an event by creation index, from the script *)
  | Cancel_in_callback of delay * int (* a callback that cancels one *)
  | Run_until of float
  | Step
  | Next_time

let delay_value = function
  | Fixed i -> [| 0.; 0.01; 0.5 |].(i)
  | Random d -> d

(* What the script needs from an event core; [high_water] and [pending]
   are read once at the end. *)
type 'h core = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> 'h;
  schedule_at : time:float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  step : unit -> bool;
  next_time : unit -> float option;
  run_until : float -> unit;
  high_water : unit -> int;
  pending : unit -> int;
}

type observed = Fired of float * int | Next of float option | Stepped of bool

let engine_core () =
  let e = Engine.create () in
  {
    now = (fun () -> Engine.now e);
    schedule = (fun ~delay f -> Engine.schedule e ~delay f);
    schedule_at = (fun ~time f -> Engine.schedule_at e ~time f);
    cancel = Engine.cancel e;
    step = (fun () -> Engine.step e);
    next_time = (fun () -> Engine.next_time e);
    run_until = (fun until -> Engine.run e ~until);
    high_water = (fun () -> Engine.queue_high_water e);
    pending = (fun () -> Engine.pending e);
  }

(* One list sorted by (time, seq); cancelled entries stay queued until
   they reach the front, so the high water counts them as the engine's
   does. *)
let reference_core () =
  let clock = ref 0. and seq = ref 0 and queue = ref [] and high = ref 0 in
  let add time f =
    let entry = (time, !seq, ref false, f) in
    incr seq;
    let key (t, s, _, _) = (t, s) in
    queue := List.merge (fun a b -> compare (key a) (key b)) !queue [ entry ];
    high := max !high (List.length !queue);
    entry
  in
  let rec drop () =
    match !queue with
    | (_, _, cancelled, _) :: rest when !cancelled ->
        queue := rest;
        drop ()
    | _ -> ()
  in
  let fire () =
    match !queue with
    | (time, _, cancelled, f) :: rest ->
        queue := rest;
        cancelled := true;
        clock := Float.max !clock time;
        f ()
    | [] -> assert false
  in
  let rec run_until until =
    drop ();
    match !queue with
    | (time, _, _, _) :: _ when time <= until ->
        fire ();
        run_until until
    | _ -> clock := Float.max !clock until
  in
  {
    now = (fun () -> !clock);
    schedule = (fun ~delay f -> add (!clock +. delay) f);
    schedule_at = (fun ~time f -> add time f);
    cancel = (fun (_, _, cancelled, _) -> cancelled := true);
    step =
      (fun () ->
        drop ();
        !queue <> [] && (fire (); true));
    next_time =
      (fun () ->
        drop ();
        match !queue with (time, _, _, _) :: _ -> Some time | [] -> None);
    run_until;
    high_water = (fun () -> !high);
    pending =
      (fun () ->
        List.length (List.filter (fun (_, _, c, _) -> not !c) !queue));
  }

(* Run [script] on [core] and return what was observed, then the final
   pending count and high water. Every event gets a creation index; a
   fired event logs (now, index). *)
let play core script =
  let log = ref [] and handles = ref [] and created = ref 0 in
  let note x = log := x :: !log in
  let rec make ~schedule children =
    let id = !created in
    incr created;
    let h =
      schedule (fun () ->
          note (Fired (core.now (), id));
          List.iter
            (fun d -> make ~schedule:(core.schedule ~delay:(delay_value d)) [])
            children)
    in
    handles := h :: !handles
  in
  let cancel_nth k =
    match !handles with
    | [] -> ()
    | hs -> core.cancel (List.nth hs (k mod List.length hs))
  in
  List.iter
    (function
      | Schedule (d, children) ->
          make ~schedule:(core.schedule ~delay:(delay_value d)) children
      | Schedule_at (d, children) ->
          make
            ~schedule:(core.schedule_at ~time:(core.now () +. delay_value d))
            children
      | Cancel k -> cancel_nth k
      | Cancel_in_callback (d, k) ->
          handles :=
            core.schedule ~delay:(delay_value d) (fun () -> cancel_nth k)
            :: !handles
      | Run_until span -> core.run_until (core.now () +. span)
      | Step -> note (Stepped (core.step ()))
      | Next_time -> note (Next (core.next_time ())))
    script;
  core.run_until infinity;
  (List.rev !log, core.pending (), core.high_water ())

let engine_op_gen =
  let open QCheck.Gen in
  let delay =
    frequency
      [
        (4, map (fun i -> Fixed i) (int_bound 2));
        (1, map (fun d -> Random d) (float_bound_inclusive 1.));
      ]
  in
  let children = list_size (int_bound 2) delay in
  frequency
    [
      (6, map2 (fun d c -> Schedule (d, c)) delay children);
      (2, map2 (fun d c -> Schedule_at (d, c)) delay children);
      (2, map (fun k -> Cancel k) nat);
      (1, map2 (fun d k -> Cancel_in_callback (d, k)) delay nat);
      (1, map (fun s -> Run_until s) (float_bound_inclusive 0.6));
      (1, return Step);
      (1, return Next_time);
    ]

let engine_op_print =
  let d = function
    | Fixed i -> Printf.sprintf "%g" (delay_value (Fixed i))
    | Random x -> Printf.sprintf "~%h" x
  in
  let ds c = String.concat "," (List.map d c) in
  function
  | Schedule (x, c) -> Printf.sprintf "schedule %s [%s]" (d x) (ds c)
  | Schedule_at (x, c) -> Printf.sprintf "at +%s [%s]" (d x) (ds c)
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Cancel_in_callback (x, k) -> Printf.sprintf "callback %s cancels %d" (d x) k
  | Run_until s -> Printf.sprintf "run +%h" s
  | Step -> "step"
  | Next_time -> "next_time"

let engine_ordering =
  QCheck.Test.make
    ~name:"engine: time-ordered, cancelled never fire, exactly as the reference"
    ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map engine_op_print ops))
       QCheck.Gen.(list_size (int_range 0 60) engine_op_gen))
    (fun script ->
      (* the reference counts every queued event, so equal high waters
         also show that events in the engine's lanes are counted *)
      play (engine_core ()) script = play (reference_core ()) script)

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
