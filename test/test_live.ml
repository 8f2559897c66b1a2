(* The live server's request path: the frame splitter on its own, then a
   real [Server.serve] on a spawned domain driven over a Unix socket. *)

module Codec = Dangers_runtime.Codec
module Params = Dangers_analytic.Params
module Protocol = Dangers_live.Protocol
module Server = Dangers_live.Server
module Splitter = Protocol.Splitter
module Obs = Dangers_obs.Metrics
module Json = Dangers_obs.Json
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let submit = Protocol.Submit [ Op.Increment (Oid.of_int 3, 1.5); Op.Read (Oid.of_int 7) ]
let frame_of request = Protocol.to_frame Protocol.request request

let feed_string s str =
  Splitter.feed s (Bytes.of_string str) (String.length str)

let next_request s =
  Option.map (Protocol.of_payload Protocol.request) (Splitter.next s)

let check_submit what = function
  | Some (Protocol.Submit [ Op.Increment (a, v); Op.Read b ]) ->
      checki (what ^ ": target") 3 (Oid.to_int a);
      Alcotest.check (Alcotest.float 0.) (what ^ ": delta") 1.5 v;
      checki (what ^ ": read") 7 (Oid.to_int b)
  | Some _ -> Alcotest.fail (what ^ ": wrong request")
  | None -> Alcotest.fail (what ^ ": no frame")

(* --- splitter --- *)

let test_every_boundary () =
  let frame = frame_of submit in
  let n = String.length frame in
  for k = 0 to n do
    let s = Splitter.create () in
    feed_string s (String.sub frame 0 k);
    if k < n then checkb "incomplete frame held back" true (Splitter.next s = None);
    feed_string s (String.sub frame k (n - k));
    check_submit (Printf.sprintf "split at %d" k) (next_request s);
    checkb "nothing left" true (Splitter.next s = None);
    checki "drained" 0 (Splitter.buffered s)
  done

let test_three_in_one_chunk () =
  let s = Splitter.create () in
  feed_string s
    (frame_of Protocol.Hello ^ frame_of submit ^ frame_of (Protocol.Query (Oid.of_int 9)));
  checkb "hello first" true (next_request s = Some Protocol.Hello);
  check_submit "submit second" (next_request s);
  (match next_request s with
  | Some (Protocol.Query oid) -> checki "query third" 9 (Oid.to_int oid)
  | _ -> Alcotest.fail "expected the query");
  checkb "then empty" true (Splitter.next s = None)

let test_zero_length () =
  let s = Splitter.create () in
  feed_string s "\000\000\000\000";
  checkb "empty payload" true (Splitter.next s = Some "");
  checkb "empty payload is a malformed request" true
    (match Protocol.of_payload Protocol.request "" with
    | _ -> false
    | exception Codec.Malformed _ -> true)

let test_oversized_header () =
  let s = Splitter.create () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Codec.max_frame + 1));
  Splitter.feed s b 4;
  checkb "oversized length rejected" true
    (match Splitter.next s with
    | _ -> false
    | exception Codec.Malformed _ -> true)

(* Every read ends mid-frame: without compaction the consumed prefix
   would pile up in front of the unread tail. *)
let test_partial_tail_bounded () =
  let frame = frame_of submit in
  let frames = 2000 in
  let stream = String.concat "" (List.init frames (fun _ -> frame)) in
  let chunk = String.length frame + (String.length frame / 2) in
  let s = Splitter.create () in
  let got = ref 0 and peak = ref 0 and pos = ref 0 in
  while !pos < String.length stream do
    let len = min chunk (String.length stream - !pos) in
    feed_string s (String.sub stream !pos len);
    pos := !pos + len;
    peak := max !peak (Splitter.capacity s);
    let continue = ref true in
    while !continue do
      match Splitter.next s with
      | Some _ -> incr got
      | None -> continue := false
    done
  done;
  checki "every frame recovered" frames !got;
  checkb (Printf.sprintf "capacity stays at 4 KiB (peak %d)" !peak) true (!peak <= 4096)

(* A max_frame payload in 64 KiB reads: the copies are amortised linear,
   so the allocation is a small multiple of the frame, not quadratic. *)
let test_max_frame_linear () =
  let total = 4 + Codec.max_frame in
  let stream = Bytes.make total 'x' in
  Bytes.set_int32_be stream 0 (Int32.of_int Codec.max_frame);
  let chunk = Bytes.create 65536 in
  let s = Splitter.create () in
  let before = Gc.allocated_bytes () in
  let pos = ref 0 and payload = ref None in
  while !pos < total do
    let len = min (Bytes.length chunk) (total - !pos) in
    Bytes.blit stream !pos chunk 0 len;
    Splitter.feed s chunk len;
    pos := !pos + len;
    payload := Splitter.next s
  done;
  let allocated = Gc.allocated_bytes () -. before in
  (match !payload with
  | Some p -> checki "payload length" Codec.max_frame (String.length p)
  | None -> Alcotest.fail "frame never completed");
  checkb
    (Printf.sprintf "allocated %.0f MiB for a %d MiB frame" (allocated /. 1048576.)
       (Codec.max_frame / 1048576))
    true
    (allocated < 4. *. float_of_int Codec.max_frame);
  checkb "large buffer released once drained" true (Splitter.capacity s <= 4096)

(* --- in-process server --- *)

let socket_path () =
  let dir = Filename.get_temp_dir_name () in
  let dir = if String.length dir > 60 then Filename.current_dir_name else dir in
  Filename.concat dir (Printf.sprintf "dangers-test-live-%d.sock" (Unix.getpid ()))

(* Retries until the server has bound and is listening. *)
let rec connect ?(tries = 500) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      (* A wedged server fails the test instead of hanging it. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      connect ~tries:(tries - 1) path

let write_string fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  checki "whole write" (Bytes.length b) n

let recv fd =
  match Protocol.recv fd Protocol.response with
  | Some response -> response
  | None -> Alcotest.fail "server closed the connection"

let rpc fd request =
  Protocol.send fd Protocol.request request;
  recv fd

let expect_value what fd =
  match recv fd with
  | Protocol.Value v -> v
  | _ -> Alcotest.fail (what ^ ": expected a value")

let start_server path =
  let params =
    { Params.default with Params.nodes = 4; db_size = 100; action_time = 1e-5 }
  in
  let config =
    {
      Server.socket_path = path;
      base_nodes = 1;
      params;
      seed = 1;
      metrics_out = None;
      series_out = None;
      sample_interval = 1.0;
      quiet = true;
      print_summary = false;
    }
  in
  Domain.spawn (fun () -> Server.serve config)

let test_server () =
  let path = socket_path () in
  let server = start_server path in
  let a = connect path and b = connect path in
  (match rpc a Protocol.Hello with
  | Protocol.Assigned { base_nodes; _ } -> checki "one base node" 1 base_nodes
  | _ -> Alcotest.fail "expected Assigned");
  (* Pipelined: five requests in one write, answered in order. *)
  write_string a
    (String.concat ""
       (List.map frame_of
          [
            Protocol.Query (Oid.of_int 0);
            Protocol.Set_connected false;
            submit;
            Protocol.Stats;
            Protocol.Query (Oid.of_int 3);
          ]));
  Alcotest.check (Alcotest.float 0.) "query" 0. (expect_value "first" a);
  checkb "set_connected" true (recv a = Protocol.Done);
  checkb "disconnected submit is tentative" true (recv a = Protocol.Tentative);
  (match recv a with
  | Protocol.Stats_reply s -> checki "no base commits yet" 0 s.Protocol.commits
  | _ -> Alcotest.fail "expected Stats_reply");
  Alcotest.check (Alcotest.float 0.) "master untouched" 0. (expect_value "last" a);
  (* One request split across two writes with a pause between them. *)
  let query = frame_of (Protocol.Query (Oid.of_int 3)) in
  write_string a (String.sub query 0 3);
  Unix.sleepf 0.05;
  write_string a (String.sub query 3 (String.length query - 3));
  ignore (expect_value "split query" a);
  (* Sync reconnects: the tentative increment replays on the base. *)
  checkb "synced" true (rpc a Protocol.Sync = Protocol.Synced);
  (match rpc a (Protocol.Query (Oid.of_int 3)) with
  | Protocol.Value v -> Alcotest.check (Alcotest.float 1e-9) "replayed" 1.5 v
  | _ -> Alcotest.fail "expected a value");
  (* Connected, nothing queued, nothing to refresh: an empty sync still
     answers (within the receive timeout set by [connect]). *)
  checkb "empty sync answers" true (rpc a Protocol.Sync = Protocol.Synced);
  (* A garbage frame drops only its sender. *)
  write_string b "\000\000\000\001\255";
  (match recv b with
  | Protocol.Error message ->
      checkb "error names the cause" true
        (String.length message >= 9 && String.sub message 0 9 = "malformed")
  | _ -> Alcotest.fail "expected an Error reply");
  checkb "garbage client dropped" true (Protocol.recv b Protocol.response = None);
  Unix.close b;
  (match rpc a (Protocol.Query (Oid.of_int 1)) with
  | Protocol.Value _ -> ()
  | _ -> Alcotest.fail "survivor not served");
  (* Heap pressure is visible to operators. *)
  (match rpc a Protocol.Metrics_snapshot with
  | Protocol.Metrics_json json ->
      let snapshot = Obs.snapshot_of_json (Json.of_string json) in
      List.iter
        (fun name ->
          checkb name true (Option.is_some (Obs.snapshot_gauge snapshot name)))
        [ "serve.gc.major_collections"; "serve.gc.major_words"; "serve.gc.heap_words" ]
  | _ -> Alcotest.fail "expected Metrics_json");
  checkb "shutdown acknowledged" true (rpc a Protocol.Shutdown = Protocol.Done);
  let stats = Domain.join server in
  Unix.close a;
  checki "one tentative accepted" 1 stats.Protocol.tentative_accepted;
  checki "none rejected" 0 stats.Protocol.tentative_rejected;
  checkb "socket removed" true (not (Sys.file_exists path))

let suite =
  [
    Alcotest.test_case "splitter every byte boundary" `Quick test_every_boundary;
    Alcotest.test_case "splitter three frames in one chunk" `Quick test_three_in_one_chunk;
    Alcotest.test_case "splitter zero-length payload" `Quick test_zero_length;
    Alcotest.test_case "splitter oversized header" `Quick test_oversized_header;
    Alcotest.test_case "splitter partial tail stays bounded" `Quick
      test_partial_tail_bounded;
    Alcotest.test_case "splitter max frame allocates linearly" `Quick
      test_max_frame_linear;
    Alcotest.test_case "server pipelining, split reads, garbage, shutdown" `Quick
      test_server;
  ]
