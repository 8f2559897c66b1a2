(* Lock table, waits-for cycle detection, and deadlock-detecting request
   tests. *)

module Mode = Dangers_lock.Mode
module Lock_table = Dangers_lock.Lock_table
module Waits_for = Dangers_lock.Waits_for

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

(* --- Deadlock-detecting requests --- *)

let test_request_deadlock () =
  let m = Lock_table.create () in
  let is_granted : Lock_table.verdict -> bool = function
    | Granted -> true
    | Waiting | Deadlock _ -> false
  in
  checkb "1 gets A" true
    (is_granted (Lock_table.request m ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop));
  checkb "2 gets B" true
    (is_granted (Lock_table.request m ~owner:2 ~resource:2 ~mode:Mode.X ~on_grant:noop));
  (match Lock_table.request m ~owner:1 ~resource:2 ~mode:Mode.X ~on_grant:noop with
  | Lock_table.Waiting -> ()
  | Lock_table.Granted | Lock_table.Deadlock _ -> Alcotest.fail "1 should wait");
  (match Lock_table.request m ~owner:2 ~resource:1 ~mode:Mode.X ~on_grant:noop with
  | Lock_table.Deadlock cycle ->
      checkb "cycle starts at requester" true (List.hd cycle = 2);
      checkb "cycle contains 1" true (List.mem 1 cycle)
  | Lock_table.Granted | Lock_table.Waiting -> Alcotest.fail "deadlock missed");
  checki "one deadlock" 1 (Lock_table.deadlocks m);
  checki "two waits" 2 (Lock_table.waits m);
  (* The victim (2) aborts and releases; that grants 1's queued request. *)
  Lock_table.release_all m ~owner:2;
  checkb "1 unblocked by victim's release" false
    (Lock_table.is_waiting m ~owner:1);
  checkb "1 now holds B" true
    (Lock_table.holds m ~owner:1 ~resource:2 = Some Mode.X)

let test_request_three_way_cycle () =
  let m = Lock_table.create () in
  ignore (Lock_table.request m ~owner:1 ~resource:1 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.request m ~owner:2 ~resource:2 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.request m ~owner:3 ~resource:3 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.request m ~owner:1 ~resource:2 ~mode:Mode.X ~on_grant:noop);
  ignore (Lock_table.request m ~owner:2 ~resource:3 ~mode:Mode.X ~on_grant:noop);
  (match Lock_table.request m ~owner:3 ~resource:1 ~mode:Mode.X ~on_grant:noop with
  | Lock_table.Deadlock cycle -> checki "cycle length 3" 3 (List.length cycle)
  | Lock_table.Granted | Lock_table.Waiting -> Alcotest.fail "3-cycle missed")

(* A fixed scenario with branching waits, shared locks and three
   deadlocks. The visit count after each blocked request pins what the
   search expands: a change in the traversal shows up here. *)
let test_request_dfs_visits_pinned () =
  let m = Lock_table.create () in
  let trace = ref [] in
  let req owner resource mode =
    let outcome =
      match Lock_table.request m ~owner ~resource ~mode ~on_grant:noop with
      | Lock_table.Granted -> "granted"
      | Lock_table.Waiting -> "waiting"
      | Lock_table.Deadlock cycle ->
          Lock_table.release_all m ~owner;
          "deadlock " ^ String.concat "-" (List.map string_of_int cycle)
    in
    trace :=
      Printf.sprintf "%d@%d %s %d" owner resource outcome
        (Lock_table.search_visits m)
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
  checki "total visits" 37 (Lock_table.search_visits m)

(* The table's state is bounded by the owners live at once: 200 000
   owners, in pairs that wait, deadlock and release, leave it no larger
   than a handful do. *)
let test_request_bounded_by_live_owners () =
  let m = Lock_table.create () in
  let deadlocks = ref 0 in
  let pair a b =
    ignore (Lock_table.request m ~owner:a ~resource:1 ~mode:Mode.X ~on_grant:noop);
    ignore (Lock_table.request m ~owner:b ~resource:2 ~mode:Mode.X ~on_grant:noop);
    ignore (Lock_table.request m ~owner:a ~resource:2 ~mode:Mode.X ~on_grant:noop);
    (match Lock_table.request m ~owner:b ~resource:1 ~mode:Mode.X ~on_grant:noop with
    | Lock_table.Deadlock _ -> incr deadlocks
    | Lock_table.Granted | Lock_table.Waiting -> ());
    Lock_table.release_all m ~owner:b;
    Lock_table.release_all m ~owner:a
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
    (Lock_table.grants_outstanding m);
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

  let live_locks (t : t) =
    Hashtbl.fold
      (fun _ lock acc -> if lock.granted = [] && lock.queue = [] then acc else acc + 1)
      t 0

  let held_resources (t : t) ~owner =
    Hashtbl.fold
      (fun resource lock acc ->
        if List.mem_assoc owner lock.granted then resource :: acc else acc)
      t []
    |> List.sort Int.compare

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

  (* Also whether any held lock had a waiter once the owner's own wait
     was cancelled, so that the release had a queue to pump. *)
  let release_all t ~owner =
    let from_cancel = cancel_wait t ~owner in
    let held = held_resources t ~owner in
    let waited =
      List.exists (fun resource -> (Hashtbl.find t resource).queue <> []) held
    in
    ( waited,
      from_cancel
      @ List.concat_map
        (fun resource ->
          let lock = Hashtbl.find t resource in
          lock.granted <- List.remove_assoc owner lock.granted;
          List.map (fun o -> (o, resource)) (pump lock))
        held )
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

(* Run one script against the real table and the model, checking every
   observable after every op, and after every release also the table's
   size: live locks, grants, and every owner's held resources. Returns
   how many releases found no waiter on the released locks and how many
   found one. *)
let run_model_script script =
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
  let quiet = ref 0 and pumped = ref 0 in
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
  let check_size () =
    checki "live locks" (Model.live_locks model) (Lock_table.live_locks real);
    for owner = 0 to owners - 1 do
      Alcotest.check ilist "held resources"
        (Model.held_resources model ~owner)
        (Lock_table.held_resources real ~owner)
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
          let waited, granted = Model.release_all model ~owner in
          incr (if waited then pumped else quiet);
          record_model granted;
          Lock_table.release_all real ~owner;
          check_size ());
      check_agreement ())
    script;
  (!quiet, !pumped)

let lock_table_model_prop =
  QCheck.Test.make
    ~name:"lock table: agrees with the naive reference model" ~count:300
    script_arb
    (fun script ->
      ignore (run_model_script script);
      true)

(* The scripts the model property draws exercise both kinds of release,
   with no waiter on the released locks and with one, many times each. *)
let test_model_scripts_cover_both_kinds_of_release () =
  let rand = Random.State.make [| 42 |] in
  let quiet = ref 0 and pumped = ref 0 in
  for _ = 1 to 300 do
    let q, p = run_model_script (QCheck.Gen.generate1 ~rand (QCheck.get_gen script_arb)) in
    quiet := !quiet + q;
    pumped := !pumped + p
  done;
  checkb (Printf.sprintf "%d releases with no waiter" !quiet) true (!quiet >= 250);
  checkb (Printf.sprintf "%d releases with a waiter" !pumped) true (!pumped >= 250)

(* Once the pools hold a record for every lock and owner live at once, a
   transaction that takes 4 uncontended locks and releases them
   allocates nothing: the lookups, the grant, the held-lock array and
   a release that wakes nobody all reuse what is there. Under
   [DANGERS_LOCK_DEBUG] every mutation ends with a self-check that
   allocates, so the count is asserted only without it. *)
let test_steady_state_allocates_nothing () =
  let t = Lock_table.create () in
  let txn owner =
    for r = 0 to 3 do
      ignore
        (Lock_table.acquire t ~owner ~resource:((owner * 7) + (r * 1_009))
           ~mode:Mode.X ~on_grant:noop)
    done;
    Lock_table.release_all t ~owner
  in
  for owner = 0 to 99 do
    txn owner
  done;
  let w0 = Gc.minor_words () in
  for owner = 100 to 10_099 do
    txn owner
  done;
  let words = Gc.minor_words () -. w0 in
  if not Lock_table.debug then
    Alcotest.check (Alcotest.float 0.) "minor words over 10,000 transactions"
      0. words;
  checki "all released" 0 (Lock_table.live_locks t)

(* With every blocker list memoized, a deadlock search that finds no
   cycle allocates nothing: a visit keeps its mark and the owner it was
   reached from in the owner's record, and the path is read back only
   for a cycle. Owner i holds i and waits for i + 1; the search from 0
   walks the whole chain to 31, which waits for nothing. *)
let test_acyclic_search_allocates_nothing () =
  let n = 32 in
  let t = Lock_table.create () in
  for i = 0 to n - 1 do
    ignore (Lock_table.acquire t ~owner:i ~resource:i ~mode:Mode.X ~on_grant:noop)
  done;
  for i = 0 to n - 2 do
    ignore
      (Lock_table.acquire t ~owner:i ~resource:(i + 1) ~mode:Mode.X ~on_grant:noop)
  done;
  checkb "no cycle" true (Lock_table.find_cycle t ~start:0 = None);
  let visits = Lock_table.search_visits t in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Lock_table.find_cycle t ~start:0)
  done;
  let words = Gc.minor_words () -. w0 in
  checki "each search visits the chain" (1_000 * n)
    (Lock_table.search_visits t - visits);
  if not Lock_table.debug then
    Alcotest.check (Alcotest.float 0.) "minor words over 1,000 searches" 0.
      words

(* A release that wakes waiters allocates nothing either, with the wake
   stack warm: the granted waiters wait on a stack in the table, not in
   lists, until their callbacks run in ascending resource order. Owner 0
   holds 4 locks, each with one waiter queued, in descending resource
   order. *)
let test_waking_release_allocates_nothing () =
  let t = Lock_table.create () in
  let fired = Array.make 4 (-1) and n = ref 0 in
  let callbacks =
    Array.init 4 (fun r () ->
        fired.(!n) <- r;
        incr n)
  in
  let round () =
    for r = 3 downto 0 do
      ignore (Lock_table.acquire t ~owner:0 ~resource:r ~mode:Mode.X ~on_grant:noop)
    done;
    for r = 3 downto 0 do
      ignore
        (Lock_table.acquire t ~owner:(r + 1) ~resource:r ~mode:Mode.X
           ~on_grant:callbacks.(r))
    done;
    let w0 = Gc.minor_words () in
    Lock_table.release_all t ~owner:0;
    let words = Gc.minor_words () -. w0 in
    for r = 0 to 3 do
      Lock_table.release_all t ~owner:(r + 1)
    done;
    words
  in
  ignore (round ());
  n := 0;
  let words = round () in
  Alcotest.check (Alcotest.array Alcotest.int) "woken in ascending resource order"
    [| 0; 1; 2; 3 |] fired;
  if not Lock_table.debug then
    Alcotest.check (Alcotest.float 0.) "minor words of the release" 0. words

(* A grant callback may release locks itself. Owner 0 holds 1 and 2,
   owner 1 waits for 1 and owner 4 for 2; owner 2 holds 3, and owner 3
   waits for it. Owner 1's callback releases owner 2, whose release runs
   owner 3's callback before returning; owner 4's runs last. *)
let test_nested_release_in_callback () =
  let t = Lock_table.create () in
  let fired = ref [] in
  let note owner () = fired := owner :: !fired in
  let acquire owner resource on_grant =
    ignore (Lock_table.acquire t ~owner ~resource ~mode:Mode.X ~on_grant)
  in
  acquire 0 2 noop;
  acquire 0 1 noop;
  acquire 2 3 noop;
  acquire 1 1 (fun () ->
      note 1 ();
      Lock_table.release_all t ~owner:2);
  acquire 3 3 (note 3);
  acquire 4 2 (note 4);
  Lock_table.release_all t ~owner:0;
  Alcotest.check (Alcotest.list Alcotest.int) "callback order" [ 1; 3; 4 ]
    (List.rev !fired);
  List.iter (fun owner -> Lock_table.release_all t ~owner) [ 1; 3; 4 ];
  checki "all released" 0 (Lock_table.live_locks t);
  (* The wake stack is empty again: a later release wakes just its own. *)
  fired := [];
  acquire 5 7 noop;
  acquire 6 7 (note 6);
  Lock_table.release_all t ~owner:5;
  Alcotest.check (Alcotest.list Alcotest.int) "later release" [ 6 ] !fired

(* A lock record leaves the table when its resource has no holder and no
   waiter, and the next resource reuses it, arrays and all: a table that
   has locked 10,000 distinct resources, each contended once, is the size
   it was after the first 100. *)
let test_bounded_by_live_locks () =
  let t = Lock_table.create () in
  let granted = ref 0 in
  let cycle resource =
    let holder = 2 * resource and waiter = (2 * resource) + 1 in
    ignore (Lock_table.acquire t ~owner:holder ~resource ~mode:Mode.X ~on_grant:noop);
    ignore
      (Lock_table.acquire t ~owner:waiter ~resource ~mode:Mode.X
         ~on_grant:(fun () -> incr granted));
    Lock_table.release_all t ~owner:holder;
    Lock_table.release_all t ~owner:waiter
  in
  let words () = Obj.reachable_words (Obj.repr t) in
  for resource = 0 to 99 do
    cycle resource
  done;
  let early = words () in
  for resource = 100 to 9_999 do
    cycle resource
  done;
  checki "every waiter granted" 10_000 !granted;
  checki "all released" 0 (Lock_table.grants_outstanding t);
  checki "no live locks" 0 (Lock_table.live_locks t);
  checki "one lock live at a time" 1 (Lock_table.live_locks_high_water t);
  checki "same size as after 100 resources" early (words ())

(* The table reports its bound as a gauge. *)
let test_live_locks_gauge () =
  let registry = Dangers_obs.Metrics.create () in
  let m = Lock_table.create ~obs:registry () in
  for resource = 0 to 2 do
    ignore (Lock_table.request m ~owner:1 ~resource ~mode:Mode.X ~on_grant:noop)
  done;
  Lock_table.release_all m ~owner:1;
  ignore (Lock_table.request m ~owner:2 ~resource:7 ~mode:Mode.X ~on_grant:noop);
  let snapshot = Dangers_obs.Metrics.snapshot registry in
  Alcotest.check
    (Alcotest.option (Alcotest.float 0.))
    "high water of live locks" (Some 3.)
    (Dangers_obs.Metrics.snapshot_gauge snapshot "lock.live_locks_high_water");
  checki "live now" 1 (Lock_table.live_locks m)

(* [request]'s verdicts match a reference replay of the same script on a
   second table through [acquire], with every queued request's cycle
   found by the from-scratch [Waits_for.find_cycle] over freshly
   recomputed blockers. *)
let lock_request_incremental_prop =
  QCheck.Test.make
    ~name:"lock manager: incremental cycles match the reference DFS"
    ~count:200 script_arb
    (fun script ->
      let m = Lock_table.create () and reference = Lock_table.create () in
      let waits = ref 0 and deadlocks = ref 0 in
      let expected ~owner ~resource ~mode : Lock_table.verdict =
        match Lock_table.acquire reference ~owner ~resource ~mode ~on_grant:noop with
        | Granted -> Granted
        | Queued -> (
            incr waits;
            let successors owner = Lock_table.blockers_fresh reference ~owner in
            match Waits_for.find_cycle ~successors ~start:owner with
            | None -> Waiting
            | Some cycle ->
                incr deadlocks;
                Lock_table.cancel_wait reference ~owner;
                Deadlock cycle)
      in
      let show : Lock_table.verdict -> string = function
        | Granted -> "granted"
        | Waiting -> "waiting"
        | Deadlock cycle -> String.concat "->" (List.map string_of_int cycle)
      in
      let both f = f m; f reference in
      List.iter
        (fun op ->
          match op with
          | Op_acquire (owner, resource, mode) ->
              if not (Lock_table.is_waiting m ~owner) then begin
                let want = expected ~owner ~resource ~mode in
                let got = Lock_table.request m ~owner ~resource ~mode ~on_grant:noop in
                if got <> want then
                  QCheck.Test.fail_reportf "owner %d on %d: request %s, reference %s"
                    owner resource (show got) (show want);
                match got with
                | Deadlock _ -> both (fun t -> Lock_table.release_all t ~owner)
                | Granted | Waiting -> ()
              end
          | Op_cancel owner -> both (fun t -> Lock_table.cancel_wait t ~owner)
          | Op_release owner -> both (fun t -> Lock_table.release_all t ~owner))
        script;
      Lock_table.waits m = !waits && Lock_table.deadlocks m = !deadlocks)

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
    Alcotest.test_case "manager two-way deadlock" `Quick test_request_deadlock;
    Alcotest.test_case "manager three-way cycle" `Quick test_request_three_way_cycle;
    Alcotest.test_case "manager dfs visits pinned" `Quick test_request_dfs_visits_pinned;
    Alcotest.test_case "manager bounded by live owners" `Quick test_request_bounded_by_live_owners;
    Alcotest.test_case "table bounded by live locks" `Quick test_bounded_by_live_locks;
    Alcotest.test_case "manager live locks gauge" `Quick test_live_locks_gauge;
    QCheck_alcotest.to_alcotest lock_table_safety_prop;
    QCheck_alcotest.to_alcotest lock_table_model_prop;
    Alcotest.test_case "model scripts cover both kinds of release" `Quick
      test_model_scripts_cover_both_kinds_of_release;
    Alcotest.test_case "nested release in a grant callback" `Quick
      test_nested_release_in_callback;
    Alcotest.test_case "acyclic search allocates nothing" `Quick
      test_acyclic_search_allocates_nothing;
    Alcotest.test_case "waking release allocates nothing" `Quick
      test_waking_release_allocates_nothing;
    Alcotest.test_case "steady state allocates nothing" `Quick
      test_steady_state_allocates_nothing;
    QCheck_alcotest.to_alcotest lock_request_incremental_prop;
  ]
