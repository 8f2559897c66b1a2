(* Trace ring buffer, its wiring through the executor and network, and the
   structured export pipeline (JSONL + Chrome trace-event conversion). *)

module Trace = Dangers_sim.Trace
module Trace_export = Dangers_sim.Trace_export
module Json = Dangers_obs.Json
module Engine = Dangers_sim.Engine
module Executor = Dangers_txn.Executor
module Txn_id = Dangers_txn.Txn_id
module Lock_table = Dangers_lock.Lock_table
module Network = Dangers_net.Network
module Delay = Dangers_runtime.Delay
module Rng = Dangers_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_ring_basics () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t ~now:(float_of_int i) (Trace.Note (string_of_int i))
  done;
  checki "recorded all" 5 (Trace.recorded t);
  checki "dropped oldest" 2 (Trace.dropped t);
  (match Trace.entries t with
  | [ a; b; c ] ->
      Alcotest.check (Alcotest.float 1e-9) "oldest retained" 3. a.Trace.at;
      Alcotest.check (Alcotest.float 1e-9) "then" 4. b.Trace.at;
      Alcotest.check (Alcotest.float 1e-9) "newest" 5. c.Trace.at
  | _ -> Alcotest.fail "three entries expected");
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_pp_smoke () =
  let t = Trace.create () in
  Trace.record t ~now:0.5 (Trace.Deadlock_victim { owner = 3; cycle = [ 3; 7 ] });
  Trace.record t ~now:0.6 (Trace.Message_sent { src = 0; dst = 1 });
  let rendered = Format.asprintf "%a" Trace.pp t in
  checkb "mentions the victim" true
    (String.length rendered > 0 && contains rendered "t3 killed (cycle 3->7)")

let test_executor_emits () =
  let engine = Engine.create () in
  let tracer = Trace.create () in
  Engine.set_tracer engine (Some tracer);
  let executor =
    Executor.create ~clock:engine ~locks:(Lock_table.create ())
      ~action_time:0.01 ~ids:(Txn_id.Gen.create ())
      ~backoff:(fun () -> Alcotest.fail "deadlock")
      ()
  in
  let submit steps =
    Executor.run executor ~steps:(fun () -> steps) ~on_commit:(fun ~started:_ -> ())
  in
  submit [ Executor.update_step ~resource:1 ];
  submit [ Executor.update_step ~resource:1 ];
  Engine.run engine;
  let count predicate = List.length (Trace.matching tracer predicate) in
  checki "two txns started" 2
    (count (function Trace.Txn_started _ -> true | _ -> false));
  checki "two commits" 2
    (count (function Trace.Txn_committed _ -> true | _ -> false));
  checki "one wait" 1
    (count (function Trace.Lock_waited _ -> true | _ -> false));
  checki "one immediate grant" 1
    (count (function Trace.Lock_granted _ -> true | _ -> false))

let test_network_emits () =
  let engine = Engine.create () in
  let tracer = Trace.create () in
  Engine.set_tracer engine (Some tracer);
  let network =
    Network.create ~clock:engine ~rng:(Rng.create ~seed:1) ~delay:Delay.Zero ~nodes:2
      ~deliver:(fun ~src:_ ~dst:_ () -> ()) ()
  in
  Network.set_connected network ~node:1 false;
  Network.send network ~src:0 ~dst:1 ();
  Network.set_connected network ~node:1 true;
  Engine.run engine;
  let kinds =
    List.map
      (fun e ->
        match e.Trace.event with
        | Trace.Node_disconnected _ -> "down"
        | Trace.Message_sent _ -> "sent"
        | Trace.Message_parked _ -> "parked"
        | Trace.Node_connected _ -> "up"
        | Trace.Message_delivered _ -> "delivered"
        | _ -> "other")
      (Trace.entries tracer)
  in
  Alcotest.check (Alcotest.list Alcotest.string) "lifecycle order"
    [ "down"; "sent"; "parked"; "up"; "delivered" ]
    kinds

let test_no_tracer_no_events () =
  let engine = Engine.create () in
  checkb "no tracer attached" true (Engine.tracer engine = None);
  (* Just exercising the no-op path. *)
  Engine.trace engine (Trace.Note "ignored");
  Engine.set_tracer engine (Some (Trace.create ()));
  Engine.trace engine (Trace.Note "kept");
  match Engine.tracer engine with
  | Some t -> checki "one event" 1 (Trace.recorded t)
  | None -> Alcotest.fail "tracer lost"

let test_iter_fold_wrapped () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record t ~now:(float_of_int i) (Trace.Note (string_of_int i))
  done;
  checki "retained" 4 (Trace.retained t);
  let folded =
    List.rev (Trace.fold t ~init:[] (fun acc e -> e.Trace.at :: acc))
  in
  Alcotest.check
    (Alcotest.list (Alcotest.float 1e-9))
    "fold oldest-first after wrap" [ 3.; 4.; 5.; 6. ] folded;
  let iterated = ref [] in
  Trace.iter t (fun e -> iterated := e :: !iterated);
  checkb "iter agrees with entries" true
    (List.rev !iterated = Trace.entries t)

(* One value per constructor; the length check below trips when someone
   adds an event without extending the export tests. *)
let all_events =
  [
    Trace.Txn_started { owner = 1 };
    Trace.Lock_granted { owner = 1; resource = 2 };
    Trace.Lock_waited { owner = 1; resource = 2 };
    Trace.Deadlock_victim { owner = 1; cycle = [ 1; 2; 3 ] };
    Trace.Txn_committed { owner = 1 };
    Trace.Message_sent { src = 0; dst = 1 };
    Trace.Message_delivered { src = 0; dst = 1 };
    Trace.Message_parked { at = 1 };
    Trace.Node_connected { node = 1 };
    Trace.Node_disconnected { node = 1 };
    Trace.Message_dropped { src = 0; dst = 1 };
    Trace.Message_duplicated { src = 0; dst = 1 };
    Trace.Node_crashed { node = 1 };
    Trace.Node_restarted { node = 1 };
    Trace.Partition_started { blocks = 2 };
    Trace.Partition_healed;
    Trace.Note "marker";
  ]

let test_every_event_pp_and_json () =
  checki "every constructor covered" 17 (List.length all_events);
  List.iter
    (fun event ->
      let rendered = Format.asprintf "%a" Trace.pp_event event in
      checkb "pp renders something" true (String.length rendered > 0);
      let j = Trace_export.event_to_json event in
      checkb "json round-trips" true (Trace_export.event_of_json j = event);
      (* And through the actual text representation too. *)
      checkb "text round-trips" true
        (Trace_export.event_of_json (Json.of_string (Json.to_string j))
        = event))
    all_events;
  Alcotest.check_raises "unknown tag rejected"
    (Json.Parse_error "unknown trace event tag \"bogus\"") (fun () ->
      ignore (Trace_export.event_of_json (Json.Obj [ ("ev", Json.Str "bogus") ])))

let test_jsonl_roundtrip () =
  let t = Trace.create () in
  List.iteri
    (fun i event -> Trace.record t ~now:(0.125 *. float_of_int i) event)
    all_events;
  let sections =
    [
      Trace_export.section ~label:"scheme:eager-group" ~seed:42 t;
      (* A header-only section, as a sweep task with no retained events. *)
      {
        Trace_export.label = "experiment:empty";
        seed = 7;
        recorded = 0;
        dropped = 0;
        entries = [];
      };
    ]
  in
  let text = Trace_export.to_jsonl sections in
  checkb "round-trips" true (Trace_export.of_jsonl text = sections);
  (match Trace_export.validate text with
  | Ok (nsections, nevents) ->
      checki "two sections" 2 nsections;
      checki "all events" 17 nevents
  | Error msg -> Alcotest.fail ("expected valid trace: " ^ msg));
  (match
     Trace_export.validate {|{"kind":"event","t":0,"ev":"note","text":"x"}|}
   with
  | Error msg -> checkb "event before header" true (contains msg "header")
  | Ok _ -> Alcotest.fail "headerless trace accepted");
  match
    Trace_export.validate
      {|{"schema":"dangers/trace/v0","kind":"header","label":"x","seed":1,"recorded":0,"dropped":0}|}
  with
  | Error msg -> checkb "schema checked" true (contains msg "trace/v0")
  | Ok _ -> Alcotest.fail "wrong schema accepted"

(* The Chrome converter, pinned against a committed golden file: the input
   covers duration-event pairing, FIFO flow matching, instants, and the
   close-dangling-transactions pass (owner 2 never commits). *)
let golden_input =
  String.concat "\n"
    [
      {|{"schema":"dangers/trace/v1","kind":"header","label":"golden","seed":7,"recorded":9,"dropped":0}|};
      {|{"kind":"event","t":0.001,"ev":"txn_started","owner":1}|};
      {|{"kind":"event","t":0.002,"ev":"message_sent","src":0,"dst":1}|};
      {|{"kind":"event","t":0.003,"ev":"lock_waited","owner":1,"resource":5}|};
      {|{"kind":"event","t":0.004,"ev":"lock_granted","owner":1,"resource":5}|};
      {|{"kind":"event","t":0.005,"ev":"message_delivered","src":0,"dst":1}|};
      {|{"kind":"event","t":0.006,"ev":"deadlock_victim","owner":1,"cycle":[1,2]}|};
      {|{"kind":"event","t":0.007,"ev":"message_dropped","src":1,"dst":0}|};
      {|{"kind":"event","t":0.008,"ev":"txn_started","owner":2}|};
      {|{"kind":"event","t":0.009,"ev":"note","text":"end of golden"}|};
      "";
    ]

let test_chrome_golden () =
  let sections = Trace_export.of_jsonl golden_input in
  let chrome = Trace_export.to_chrome sections in
  let events =
    Json.list_of (Json.member "traceEvents" chrome)
  in
  let phases =
    List.map (fun e -> Json.string_of (Json.member "ph" e)) events
  in
  let count ph = List.length (List.filter (String.equal ph) phases) in
  checki "two begins (owner 1 and 2)" 2 (count "B");
  checki "two ends (deadlock + truncation)" 2 (count "E");
  checki "one flow start" 1 (count "s");
  checki "one flow finish" 1 (count "f");
  checki "two process-name records" 2 (count "M");
  let rendered = Json.to_string chrome in
  checkb "dangling txn closed as truncated" true
    (contains rendered {|"truncated":true|});
  let ic = open_in_bin "trace_golden_chrome.json" in
  let golden =
    really_input_string ic (in_channel_length ic) |> String.trim
  in
  close_in ic;
  Alcotest.check Alcotest.string "matches committed golden" golden rendered

let suite =
  [
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "executor emits" `Quick test_executor_emits;
    Alcotest.test_case "network emits" `Quick test_network_emits;
    Alcotest.test_case "no tracer no events" `Quick test_no_tracer_no_events;
    Alcotest.test_case "iter and fold after wrap" `Quick test_iter_fold_wrapped;
    Alcotest.test_case "every event pp and json" `Quick
      test_every_event_pp_and_json;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
  ]
