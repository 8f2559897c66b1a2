(* Lock table, waits-for cycle detection, and lock manager tests. *)

module Mode = Dangers_lock.Mode
module Lock_table = Dangers_lock.Lock_table
module Waits_for = Dangers_lock.Waits_for
module Lock_manager = Dangers_lock.Lock_manager

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let granted = function Lock_table.Granted -> true | Lock_table.Queued -> false

(* --- Mode --- *)

let test_mode () =
  checkb "S/S compatible" true (Mode.compatible Mode.S Mode.S);
  checkb "S/X incompatible" false (Mode.compatible Mode.S Mode.X);
  checkb "X/X incompatible" false (Mode.compatible Mode.X Mode.X);
  checkb "X covers S" true (Mode.covers ~held:Mode.X ~requested:Mode.S);
  checkb "S does not cover X" false (Mode.covers ~held:Mode.S ~requested:Mode.X)

(* --- Lock table --- *)

let noop () = ()

let test_grant_and_conflict () =
  let t = Lock_table.create () in
  checkb "first X granted" true
    (granted (Lock_table.acquire t ~owner:1 ~resource:10 ~mode:Mode.X ~on_grant:noop));
  checkb "second X queued" false
    (granted (Lock_table.acquire t ~owner:2 ~resource:10 ~mode:Mode.X ~on_grant:noop));
  checkb "owner 2 waiting" true (Lock_table.is_waiting t ~owner:2);
  Alcotest.check (Alcotest.list Alcotest.int) "blocked by holder" [ 1 ]
    (Lock_table.blockers t ~owner:2)

let test_shared_grants () =
  let t = Lock_table.create () in
  checkb "S granted" true
    (granted (Lock_table.acquire t ~owner:1 ~resource:5 ~mode:Mode.S ~on_grant:noop));
  checkb "second S granted" true
    (granted (Lock_table.acquire t ~owner:2 ~resource:5 ~mode:Mode.S ~on_grant:noop));
  checkb "X queued behind readers" false
    (granted (Lock_table.acquire t ~owner:3 ~resource:5 ~mode:Mode.X ~on_grant:noop));
  let blockers = List.sort Int.compare (Lock_table.blockers t ~owner:3) in
  Alcotest.check (Alcotest.list Alcotest.int) "both readers block" [ 1; 2 ] blockers

let test_release_wakes_fifo () =
  let t = Lock_table.create () in
  let woken = ref [] in
  let wake id () = woken := id :: !woken in
  ignore (Lock_table.acquire t ~owner:1 ~resource:7 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.acquire t ~owner:2 ~resource:7 ~mode:Mode.X ~on_grant:(wake 2));
  Lock_table.release_all t ~owner:1;
  Alcotest.check (Alcotest.list Alcotest.int) "first waiter woken" [ 2 ] !woken;
  checkb "2 now holds" true (Lock_table.holds t ~owner:2 ~resource:7 = Some Mode.X)

let test_strict_fifo_no_overtake () =
  (* An S request arriving behind a queued X must not overtake it. *)
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~resource:3 ~mode:Mode.S ~on_grant:noop);
  checkb "X queued" false
    (granted (Lock_table.acquire t ~owner:2 ~resource:3 ~mode:Mode.X ~on_grant:noop));
  checkb "later S queued too" false
    (granted (Lock_table.acquire t ~owner:3 ~resource:3 ~mode:Mode.S ~on_grant:noop));
  Alcotest.check (Alcotest.list Alcotest.int) "S blocked by X ahead" [ 2 ]
    (Lock_table.blockers t ~owner:3)

let test_reentrant_and_upgrade () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  checkb "re-entrant X" true
    (granted (Lock_table.acquire t ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop));
  checkb "X covers S re-entrantly" true
    (granted (Lock_table.acquire t ~owner:1 ~resource:1 ~mode:Mode.S ~on_grant:noop));
  ignore (Lock_table.acquire t ~owner:2 ~resource:2 ~mode:Mode.S ~on_grant:noop);
  checkb "sole-holder upgrade granted" true
    (granted (Lock_table.acquire t ~owner:2 ~resource:2 ~mode:Mode.X ~on_grant:noop));
  checkb "upgraded to X" true (Lock_table.holds t ~owner:2 ~resource:2 = Some Mode.X)

let test_upgrade_waits_for_other_reader () =
  let t = Lock_table.create () in
  let upgraded = ref false in
  ignore (Lock_table.acquire t ~owner:1 ~resource:4 ~mode:Mode.S ~on_grant:noop);
  ignore (Lock_table.acquire t ~owner:2 ~resource:4 ~mode:Mode.S ~on_grant:noop);
  checkb "upgrade queued" false
    (granted
       (Lock_table.acquire t ~owner:1 ~resource:4 ~mode:Mode.X
          ~on_grant:(fun () -> upgraded := true)));
  Alcotest.check (Alcotest.list Alcotest.int) "blocked by other reader" [ 2 ]
    (Lock_table.blockers t ~owner:1);
  Lock_table.release_all t ~owner:2;
  checkb "upgrade completed on release" true !upgraded;
  checkb "now X" true (Lock_table.holds t ~owner:1 ~resource:4 = Some Mode.X)

let test_cancel_wait_unblocks () =
  let t = Lock_table.create () in
  let woken3 = ref false in
  ignore (Lock_table.acquire t ~owner:1 ~resource:9 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.acquire t ~owner:2 ~resource:9 ~mode:Mode.X ~on_grant:noop);
  ignore
    (Lock_table.acquire t ~owner:3 ~resource:9 ~mode:Mode.X
       ~on_grant:(fun () -> woken3 := true));
  Lock_table.cancel_wait t ~owner:2;
  checkb "2 no longer waiting" false (Lock_table.is_waiting t ~owner:2);
  Lock_table.release_all t ~owner:1;
  checkb "3 got the lock (2 skipped)" true !woken3

let test_release_all_multiple () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.acquire t ~owner:1 ~resource:2 ~mode:Mode.X ~on_grant:noop);
  checki "two grants" 2 (Lock_table.grants_outstanding t);
  Alcotest.check (Alcotest.list Alcotest.int) "held" [ 1; 2 ]
    (Lock_table.held_resources t ~owner:1);
  Lock_table.release_all t ~owner:1;
  checki "no grants" 0 (Lock_table.grants_outstanding t);
  Alcotest.check (Alcotest.list Alcotest.int) "nothing held" []
    (Lock_table.held_resources t ~owner:1)

let test_double_wait_rejected () =
  let t = Lock_table.create () in
  ignore (Lock_table.acquire t ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.acquire t ~owner:2 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  Alcotest.check_raises "waiting owner cannot acquire"
    (Invalid_argument "Lock_table.acquire: owner is already waiting") (fun () ->
      ignore (Lock_table.acquire t ~owner:2 ~resource:2 ~mode:Mode.X ~on_grant:noop))

(* --- Waits-for --- *)

let graph edges node = List.filter_map (fun (a, b) -> if a = node then Some b else None) edges

let test_cycle_detection () =
  let cycle2 = graph [ (1, 2); (2, 1) ] in
  (match Waits_for.find_cycle ~successors:cycle2 ~start:1 with
  | Some [ 1; 2 ] -> ()
  | Some other ->
      Alcotest.failf "unexpected cycle [%s]"
        (String.concat ";" (List.map string_of_int other))
  | None -> Alcotest.fail "cycle missed");
  let chain = graph [ (1, 2); (2, 3) ] in
  checkb "no cycle in a chain" true
    (Waits_for.find_cycle ~successors:chain ~start:1 = None);
  let cycle3 = graph [ (1, 2); (2, 3); (3, 1) ] in
  (match Waits_for.find_cycle ~successors:cycle3 ~start:1 with
  | Some [ 1; 2; 3 ] -> ()
  | Some _ | None -> Alcotest.fail "three-cycle missed")

let test_cycle_not_through_start () =
  (* A pre-existing cycle that does not involve the start node is not the
     start's deadlock. *)
  let g = graph [ (1, 2); (2, 3); (3, 2) ] in
  checkb "foreign cycle ignored" true (Waits_for.find_cycle ~successors:g ~start:1 = None)

let test_reachable () =
  let g = graph [ (1, 2); (2, 3); (2, 4) ] in
  Alcotest.check (Alcotest.list Alcotest.int) "reachable set" [ 2; 3; 4 ]
    (Waits_for.reachable ~successors:g ~start:1)

(* --- Lock manager --- *)

let test_manager_deadlock () =
  let m = Lock_manager.create () in
  let is_granted = function
    | Lock_manager.Granted -> true
    | Lock_manager.Waiting | Lock_manager.Deadlock _ -> false
  in
  checkb "1 gets A" true
    (is_granted (Lock_manager.request m ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop));
  checkb "2 gets B" true
    (is_granted (Lock_manager.request m ~owner:2 ~resource:2 ~mode:Mode.X ~on_grant:noop));
  (match Lock_manager.request m ~owner:1 ~resource:2 ~mode:Mode.X ~on_grant:noop with
  | Lock_manager.Waiting -> ()
  | Lock_manager.Granted | Lock_manager.Deadlock _ -> Alcotest.fail "1 should wait");
  (match Lock_manager.request m ~owner:2 ~resource:1 ~mode:Mode.X ~on_grant:noop with
  | Lock_manager.Deadlock cycle ->
      checkb "cycle starts at requester" true (List.hd cycle = 2);
      checkb "cycle contains 1" true (List.mem 1 cycle)
  | Lock_manager.Granted | Lock_manager.Waiting -> Alcotest.fail "deadlock missed");
  checki "one deadlock" 1 (Lock_manager.deadlocks m);
  checki "two waits" 2 (Lock_manager.waits m);
  (* The victim (2) aborts and releases; that grants 1's queued request. *)
  Lock_manager.release_all m ~owner:2;
  checkb "1 unblocked by victim's release" false
    (Lock_table.is_waiting (Lock_manager.table m) ~owner:1);
  checkb "1 now holds B" true
    (Lock_table.holds (Lock_manager.table m) ~owner:1 ~resource:2 = Some Mode.X)

let test_manager_three_way_cycle () =
  let m = Lock_manager.create () in
  ignore (Lock_manager.request m ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_manager.request m ~owner:2 ~resource:2 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_manager.request m ~owner:3 ~resource:3 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_manager.request m ~owner:1 ~resource:2 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_manager.request m ~owner:2 ~resource:3 ~mode:Mode.X ~on_grant:noop);
  (match Lock_manager.request m ~owner:3 ~resource:1 ~mode:Mode.X ~on_grant:noop with
  | Lock_manager.Deadlock cycle -> checki "cycle length 3" 3 (List.length cycle)
  | Lock_manager.Granted | Lock_manager.Waiting -> Alcotest.fail "3-cycle missed")

let test_manager_reset_counters () =
  let m = Lock_manager.create () in
  ignore (Lock_manager.request m ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_manager.request m ~owner:2 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  checki "one wait" 1 (Lock_manager.waits m);
  Lock_manager.reset_counters m;
  checki "reset" 0 (Lock_manager.waits m)

(* A fixed scenario with branching waits, shared locks and three
   deadlocks. The visit count after each blocked request pins what the
   search expands: a change in the traversal shows up here. *)
let test_manager_dfs_visits_pinned () =
  let m = Lock_manager.create () in
  let trace = ref [] in
  let req owner resource mode =
    let outcome =
      match Lock_manager.request m ~owner ~resource ~mode ~on_grant:noop with
      | Lock_manager.Granted -> "granted"
      | Lock_manager.Waiting -> "waiting"
      | Lock_manager.Deadlock cycle ->
          Lock_manager.release_all m ~owner;
          "deadlock " ^ String.concat "-" (List.map string_of_int cycle)
    in
    trace :=
      Printf.sprintf "%d@%d %s %d" owner resource outcome
        (Lock_manager.dfs_visits m)
      :: !trace
  in
  List.iter (fun o -> req o o Mode.X) [ 1; 2; 3; 4 ];
  req 5 5 Mode.S;
  req 6 5 Mode.S;
  req 1 2 Mode.X;
  req 2 5 Mode.X;
  req 5 3 Mode.X;
  req 6 3 Mode.X;
  req 4 1 Mode.S;
  req 3 1 Mode.X;
  List.iter (fun o -> req o o Mode.X) [ 7; 8 ];
  req 7 8 Mode.X;
  req 8 4 Mode.X;
  req 5 7 Mode.X;
  req 6 2 Mode.X;
  Alcotest.check (Alcotest.list Alcotest.string) "outcomes and running visit counts"
    [ "1@1 granted 0"; "2@2 granted 0"; "3@3 granted 0"; "4@4 granted 0";
      "5@5 granted 0"; "6@5 granted 0"; "1@2 waiting 2"; "2@5 waiting 5";
      "5@3 waiting 7"; "6@3 waiting 10"; "4@1 waiting 16";
      "3@1 deadlock 3-1-2-5 20"; "7@7 granted 20"; "8@8 granted 20";
      "7@8 waiting 22"; "8@4 waiting 28"; "5@7 deadlock 5-7-8-4-1-2 34";
      "6@2 deadlock 6-1-2 37" ]
    (List.rev !trace);
  checki "total visits" 37 (Lock_manager.dfs_visits m)

(* The manager's state is bounded by the owners live at once: 200 000
   owners, in pairs that wait, deadlock and release, leave it no larger
   than a handful do. *)
let test_manager_bounded_by_live_owners () =
  let m = Lock_manager.create () in
  let deadlocks = ref 0 in
  let pair a b =
    ignore (Lock_manager.request m ~owner:a ~resource:1 ~mode:Mode.X ~on_grant:noop);
    ignore (Lock_manager.request m ~owner:b ~resource:2 ~mode:Mode.X ~on_grant:noop);
    ignore (Lock_manager.request m ~owner:a ~resource:2 ~mode:Mode.X ~on_grant:noop);
    (match Lock_manager.request m ~owner:b ~resource:1 ~mode:Mode.X ~on_grant:noop with
    | Lock_manager.Deadlock _ -> incr deadlocks
    | Lock_manager.Granted | Lock_manager.Waiting -> ());
    Lock_manager.release_all m ~owner:b;
    Lock_manager.release_all m ~owner:a
  in
  let words () = Obj.reachable_words (Obj.repr m) in
  for i = 0 to 99 do
    pair (2 * i) ((2 * i) + 1)
  done;
  let early = words () in
  for i = 100 to 99_999 do
    pair (2 * i) ((2 * i) + 1)
  done;
  checki "every pair deadlocked" 100_000 !deadlocks;
  checki "no grants left" 0
    (Lock_table.grants_outstanding (Lock_manager.table m));
  let late = words () in
  checkb (Printf.sprintf "%d words after 200k owners, bound 4096" late) true
    (late <= 4096);
  checki "same size as after 200 owners" early late

(* Property: random grant/release traffic never leaves conflicting grants. *)
let lock_table_safety_prop =
  QCheck.Test.make ~name:"lock table: never grants X/X on one resource" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60)
              (pair (int_range 0 5) (int_range 0 3)))
    (fun script ->
      let t = Lock_table.create () in
      let holders : (int, int list) Hashtbl.t = Hashtbl.create 8 in
      let add_holder resource owner =
        let current = Option.value ~default:[] (Hashtbl.find_opt holders resource) in
        Hashtbl.replace holders resource (owner :: current)
      in
      let ok = ref true in
      List.iter
        (fun (owner, resource) ->
          if Lock_table.is_waiting t ~owner then Lock_table.release_all t ~owner
          else
            match
              Lock_table.acquire t ~owner ~resource ~mode:Mode.X
                ~on_grant:(fun () -> add_holder resource owner)
            with
            | Lock_table.Granted -> add_holder resource owner
            | Lock_table.Queued -> ())
        script;
      (* Check via the table's own view: each resource has at most one X
         holder. *)
      for resource = 0 to 3 do
        let x_holders = ref 0 in
        for owner = 0 to 5 do
          match Lock_table.holds t ~owner ~resource with
          | Some Mode.X -> incr x_holders
          | Some Mode.S | None -> ()
        done;
        if !x_holders > 1 then ok := false
      done;
      !ok)

(* --- Model-based properties ---

   A naive association-list lock table (the seed implementation's
   semantics, kept deliberately dumb) drives the same random traffic as
   the array-backed table; every observable — outcomes, grant order,
   blocker sets, held modes, waiting state, grant counts — must agree at
   every step. *)

module Model = struct
  type waiter = { owner : int; mode : Mode.t }

  type lock = {
    mutable granted : (int * Mode.t) list;
    mutable queue : waiter list; (* front first *)
  }

  type t = (int, lock) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let lock_for (t : t) resource =
    match Hashtbl.find_opt t resource with
    | Some lock -> lock
    | None ->
        let lock = { granted = []; queue = [] } in
        Hashtbl.add t resource lock;
        lock

  let waiting_on (t : t) ~owner =
    Hashtbl.fold
      (fun resource lock acc ->
        if List.exists (fun w -> w.owner = owner) lock.queue then
          Some (resource, lock)
        else acc)
      t None

  let is_waiting t ~owner = waiting_on t ~owner <> None

  let holds (t : t) ~owner ~resource =
    match Hashtbl.find_opt t resource with
    | None -> None
    | Some lock -> List.assoc_opt owner lock.granted

  let grants_outstanding (t : t) =
    Hashtbl.fold (fun _ lock acc -> acc + List.length lock.granted) t 0

  (* FIFO pump; returns the owners granted, front of the queue first. *)
  let pump lock =
    let grantable w =
      List.for_all
        (fun (o, g) -> o = w.owner || Mode.compatible g w.mode)
        lock.granted
    in
    let rec loop acc =
      match lock.queue with
      | w :: rest when grantable w ->
          lock.queue <- rest;
          (if List.mem_assoc w.owner lock.granted then
             lock.granted <-
               List.map
                 (fun (o, g) -> if o = w.owner then (o, w.mode) else (o, g))
                 lock.granted
           else lock.granted <- lock.granted @ [ (w.owner, w.mode) ]);
          loop (w.owner :: acc)
      | _ -> List.rev acc
    in
    loop []

  let acquire t ~owner ~resource ~mode =
    let lock = lock_for t resource in
    match List.assoc_opt owner lock.granted with
    | Some held when Mode.covers ~held ~requested:mode -> Lock_table.Granted
    | Some _ ->
        if List.for_all (fun (o, _) -> o = owner) lock.granted then begin
          lock.granted <- List.map (fun (o, _) -> (o, Mode.X)) lock.granted;
          Lock_table.Granted
        end
        else begin
          (* upgrades wait at the front *)
          lock.queue <- { owner; mode } :: lock.queue;
          Lock_table.Queued
        end
    | None ->
        if
          lock.queue = []
          && List.for_all (fun (_, g) -> Mode.compatible g mode) lock.granted
        then begin
          lock.granted <- lock.granted @ [ (owner, mode) ];
          Lock_table.Granted
        end
        else begin
          lock.queue <- lock.queue @ [ { owner; mode } ];
          Lock_table.Queued
        end

  let blockers t ~owner =
    match waiting_on t ~owner with
    | None -> []
    | Some (_, lock) ->
        let rec split ahead = function
          | [] -> (List.rev ahead, Mode.X)
          | w :: _ when w.owner = owner -> (List.rev ahead, w.mode)
          | w :: rest -> split (w :: ahead) rest
        in
        let ahead, my_mode = split [] lock.queue in
        let holders =
          List.filter_map
            (fun (o, g) ->
              if o <> owner && not (Mode.compatible g my_mode) then Some o
              else None)
            lock.granted
        in
        let queued =
          List.filter_map
            (fun w ->
              if not (Mode.compatible w.mode my_mode) then Some w.owner
              else None)
            ahead
        in
        List.sort_uniq Int.compare (holders @ queued)

  (* Both return the grants fired, as (owner, resource) in callback
     order. *)
  let cancel_wait t ~owner =
    match waiting_on t ~owner with
    | None -> []
    | Some (resource, lock) ->
        lock.queue <- List.filter (fun w -> w.owner <> owner) lock.queue;
        List.map (fun o -> (o, resource)) (pump lock)

  let release_all t ~owner =
    let from_cancel = cancel_wait t ~owner in
    let held =
      Hashtbl.fold
        (fun resource lock acc ->
          if List.mem_assoc owner lock.granted then resource :: acc else acc)
        t []
      |> List.sort Int.compare
    in
    from_cancel
    @ List.concat_map
        (fun resource ->
          let lock = Hashtbl.find t resource in
          lock.granted <- List.remove_assoc owner lock.granted;
          List.map (fun o -> (o, resource)) (pump lock))
        held
end

let owners = 5
let resources = 4

type script_op =
  | Op_acquire of int * int * Mode.t
  | Op_cancel of int
  | Op_release of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun owner resource x ->
              Op_acquire (owner, resource, if x then Mode.X else Mode.S))
            (int_range 0 (owners - 1))
            (int_range 0 (resources - 1))
            bool );
        (1, map (fun o -> Op_cancel o) (int_range 0 (owners - 1)));
        (2, map (fun o -> Op_release o) (int_range 0 (owners - 1)));
      ])

let op_print = function
  | Op_acquire (o, r, m) ->
      Printf.sprintf "acquire(%d,%d,%s)" o r
        (match m with Mode.X -> "X" | Mode.S -> "S")
  | Op_cancel o -> Printf.sprintf "cancel(%d)" o
  | Op_release o -> Printf.sprintf "release(%d)" o

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 1 80) op_gen)

let ilist = Alcotest.list Alcotest.int

let lock_table_model_prop =
  QCheck.Test.make
    ~name:"lock table: agrees with the naive reference model" ~count:300
    script_arb
    (fun script ->
      let real = Lock_table.create () in
      let model = Model.create () in
      let real_grants = ref [] in
      let on_grant owner resource () =
        real_grants := (owner, resource) :: !real_grants
      in
      let model_grants = ref [] in
      let record_model granted =
        List.iter (fun grant -> model_grants := grant :: !model_grants) granted
      in
      let check_agreement () =
        Alcotest.check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "grant order" (List.rev !model_grants) (List.rev !real_grants);
        checki "grants outstanding" (Model.grants_outstanding model)
          (Lock_table.grants_outstanding real);
        for owner = 0 to owners - 1 do
          checkb "is_waiting"
            (Model.is_waiting model ~owner)
            (Lock_table.is_waiting real ~owner);
          Alcotest.check ilist "blockers" (Model.blockers model ~owner)
            (Lock_table.blockers real ~owner);
          Alcotest.check ilist "blockers_fresh agrees with memo"
            (Lock_table.blockers real ~owner)
            (Lock_table.blockers_fresh real ~owner);
          for resource = 0 to resources - 1 do
            checkb "holds"
              (Model.holds model ~owner ~resource
              = Some Mode.X)
              (Lock_table.holds real ~owner ~resource = Some Mode.X);
            checkb "holds S"
              (Model.holds model ~owner ~resource = Some Mode.S)
              (Lock_table.holds real ~owner ~resource = Some Mode.S)
          done
        done
      in
      List.iter
        (fun op ->
          (match op with
          | Op_acquire (owner, resource, mode) ->
              (* both sides forbid acquiring while waiting; skip those *)
              if not (Model.is_waiting model ~owner) then begin
                let model_outcome =
                  Model.acquire model ~owner ~resource ~mode
                in
                (* a queue-front upgrade can become grantable only via
                   later releases, so pumping here grants nothing; the
                   real table relies on the same fact *)
                let real_outcome =
                  Lock_table.acquire real ~owner ~resource ~mode
                    ~on_grant:(on_grant owner resource)
                in
                checkb "acquire outcome"
                  (model_outcome = Lock_table.Granted)
                  (real_outcome = Lock_table.Granted)
              end
          | Op_cancel owner ->
              record_model (Model.cancel_wait model ~owner);
              Lock_table.cancel_wait real ~owner
          | Op_release owner ->
              (* grants come back in (cancel pump, then resources
                 ascending) order — the order the real table fires
                 callbacks in *)
              record_model (Model.release_all model ~owner);
              Lock_table.release_all real ~owner);
          check_agreement ())
        script;
      true)

(* Lock records stay for the life of the table, so their size is the
   table's footprint: one grant mode per lock and a granted-owner array
   sized for the usual single X holder keep a resource that was locked
   once within 16 words. *)
let test_footprint_per_resource () =
  let t = Lock_table.create () in
  let resources = 10_000 in
  for resource = 0 to resources - 1 do
    ignore (Lock_table.acquire t ~owner:resource ~resource ~mode:Mode.X ~on_grant:noop);
    Lock_table.release_all t ~owner:resource
  done;
  checki "all released" 0 (Lock_table.grants_outstanding t);
  let per_resource =
    float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int resources
  in
  checkb (Printf.sprintf "%.1f words per resource <= 16" per_resource) true
    (per_resource <= 16.)

let lock_manager_incremental_prop =
  QCheck.Test.make
    ~name:"lock manager: incremental cycles match the reference DFS"
    ~count:200 script_arb
    (fun script ->
      (* [debug_check] makes the manager itself fail on any divergence
         between the incremental detector and Waits_for.find_cycle over
         freshly recomputed blockers. *)
      let m = Lock_manager.create ~debug_check:true () in
      List.iter
        (fun op ->
          match op with
          | Op_acquire (owner, resource, mode) ->
              if
                not (Lock_table.is_waiting (Lock_manager.table m) ~owner)
              then begin
                match
                  Lock_manager.request m ~owner ~resource ~mode
                    ~on_grant:noop
                with
                | Lock_manager.Deadlock cycle ->
                    checkb "victim heads its cycle" true
                      (List.hd cycle = owner);
                    Lock_manager.release_all m ~owner
                | Lock_manager.Granted | Lock_manager.Waiting -> ()
              end
          | Op_cancel owner ->
              Lock_table.cancel_wait (Lock_manager.table m) ~owner
          | Op_release owner -> Lock_manager.release_all m ~owner)
        script;
      true)

let suite =
  [
    Alcotest.test_case "modes" `Quick test_mode;
    Alcotest.test_case "grant and conflict" `Quick test_grant_and_conflict;
    Alcotest.test_case "shared grants" `Quick test_shared_grants;
    Alcotest.test_case "release wakes FIFO" `Quick test_release_wakes_fifo;
    Alcotest.test_case "strict FIFO no overtake" `Quick test_strict_fifo_no_overtake;
    Alcotest.test_case "re-entrant and upgrade" `Quick test_reentrant_and_upgrade;
    Alcotest.test_case "upgrade waits for reader" `Quick test_upgrade_waits_for_other_reader;
    Alcotest.test_case "cancel wait unblocks" `Quick test_cancel_wait_unblocks;
    Alcotest.test_case "release all multiple" `Quick test_release_all_multiple;
    Alcotest.test_case "double wait rejected" `Quick test_double_wait_rejected;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "foreign cycle ignored" `Quick test_cycle_not_through_start;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "manager two-way deadlock" `Quick test_manager_deadlock;
    Alcotest.test_case "manager three-way cycle" `Quick test_manager_three_way_cycle;
    Alcotest.test_case "manager reset counters" `Quick test_manager_reset_counters;
    Alcotest.test_case "manager dfs visits pinned" `Quick test_manager_dfs_visits_pinned;
    Alcotest.test_case "manager bounded by live owners" `Quick test_manager_bounded_by_live_owners;
    Alcotest.test_case "footprint per resource" `Quick test_footprint_per_resource;
    QCheck_alcotest.to_alcotest lock_table_safety_prop;
    QCheck_alcotest.to_alcotest lock_table_model_prop;
    QCheck_alcotest.to_alcotest lock_manager_incremental_prop;
  ]
