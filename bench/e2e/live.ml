(* The live workloads: a [dangers serve]-equivalent two-tier server in a
   child process, driven over its Unix socket by this benchmark's own
   closed-loop client. Each connection sends its next request only after
   the previous reply: an open-loop generator was tried and dropped because
   its sleep overshoot (~80 us) exceeded the service's own p50. The client
   is not [Load_gen] because the traced pass must time encode, write, wait
   and decode apart. *)

module Params = Dangers_analytic.Params
module Server = Dangers_live.Server
module Protocol = Dangers_live.Protocol
module Live_clock = Dangers_runtime.Live_clock
module Rng = Dangers_util.Rng
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid
module Obs = Dangers_obs.Metrics
module Json = Dangers_obs.Json

type mix =
  | Churn of { burst : int }
      (** per cycle: disconnect, [burst] tentative submits, sync, query *)
  | Connected of { submit_share : float }
      (** connected submits (base transactions) mixed with queries *)

type config = {
  mix : mix;
  connections : int;  (** one client domain each *)
  transactions : int;  (** submits, across all connections *)
  nodes : int;
  base_nodes : int;
  db_size : int;
  action_time : float;
}

(* --- the server child --- *)

let serve_argv ~socket ~seed c =
  [
    "__serve"; socket; string_of_int seed; string_of_int c.nodes;
    string_of_int c.base_nodes; string_of_int c.db_size;
    Printf.sprintf "%h" c.action_time;
  ]

let serve_main = function
  | [ socket; seed; nodes; base_nodes; db_size; action_time ] ->
      let params =
        {
          Params.default with
          Params.nodes = int_of_string nodes;
          db_size = int_of_string db_size;
          action_time = float_of_string action_time;
        }
      in
      ignore
        (Server.serve
           {
             Server.socket_path = socket;
             base_nodes = int_of_string base_nodes;
             params;
             seed = int_of_string seed;
             metrics_out = None;
             series_out = None;
             sample_interval = 1.0;
             quiet = true;
             print_summary = false;
           });
      let gc = Gc.quick_stat () in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("minor_words", Json.of_float gc.minor_words);
                ("promoted_words", Json.of_float gc.promoted_words);
                ("major_collections", Json.int_ gc.major_collections);
              ]))
  | _ -> invalid_arg "Live.serve_main: bad arguments"

(* --- the client --- *)

type timing = {
  mutable encode_ns : float;
  mutable write_ns : float;
  mutable decode_ns : float;
  mutable request_ns : float;
  mutable waits_ns : float list;
}

type conn = { fd : Unix.file_descr; timing : timing option; overhead : float }

exception Closed

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let written = ref 0 in
  while !written < Bytes.length b do
    written := !written + Unix.write fd b !written (Bytes.length b - !written)
  done

let read_exact fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    match Unix.read fd b !got (n - !got) with
    | 0 -> raise Closed
    | k -> got := !got + k
  done;
  Bytes.unsafe_to_string b

let read_frame fd =
  let h = read_exact fd 4 in
  let len =
    (Char.code h.[0] lsl 24) lor (Char.code h.[1] lsl 16) lor (Char.code h.[2] lsl 8)
    lor Char.code h.[3]
  in
  if len > Dangers_runtime.Codec.max_frame then
    raise (Dangers_runtime.Codec.Malformed (Printf.sprintf "frame of %d bytes" len));
  read_exact fd len

let plain_rpc fd request =
  Protocol.send fd Protocol.request request;
  match Protocol.recv fd Protocol.response with
  | Some response -> response
  | None -> raise Closed

(* The traced form makes the same calls as [Protocol.send] and
   [Protocol.recv], split so that each can be timed. *)
let rpc conn request =
  match conn.timing with
  | None -> plain_rpc conn.fd request
  | Some t ->
      let part a b = Float.max 0. (Probe.ns_between a b -. conn.overhead) in
      let t0 = Probe.now_ns () in
      let frame = Protocol.to_frame Protocol.request request in
      let t1 = Probe.now_ns () in
      write_all conn.fd frame;
      let t2 = Probe.now_ns () in
      let payload = read_frame conn.fd in
      let t3 = Probe.now_ns () in
      let response = Protocol.of_payload Protocol.response payload in
      let t4 = Probe.now_ns () in
      t.encode_ns <- t.encode_ns +. part t0 t1;
      t.write_ns <- t.write_ns +. part t1 t2;
      t.waits_ns <- part t2 t3 :: t.waits_ns;
      t.decode_ns <- t.decode_ns +. part t3 t4;
      response

type load = {
  requests : int;
  failures : string list;
  submit_us : float list;
  sync_ms : float list;
  syncs : (int64 * int64) list;  (** traced: each sync's interval *)
  tentatives : int;
  increments : float;  (** sum of every submitted delta *)
  timing : timing option;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* Two increments on distinct objects, in quarters: every sum of them is
   exact in floating point, so the final master state can be checked for
   equality. *)
let gen_ops rng ~db_size =
  Array.to_list (Rng.sample_without_replacement rng ~n:db_size ~k:2)
  |> List.map (fun i ->
         Op.Increment (Oid.of_int i, float_of_int (1 + Rng.int rng 8) *. 0.25))

let delta_sum ops =
  List.fold_left
    (fun acc op -> match op with Op.Increment (_, d) -> acc +. d | _ -> acc)
    0. ops

(* One connection's closed loop. Runs on its own domain, so every piece of
   mutable state is created here. *)
let drive c ~seed ~index ~fd ~traced ~overhead ~transactions =
  let timing =
    if traced then
      Some
        { encode_ns = 0.; write_ns = 0.; decode_ns = 0.; request_ns = 0.; waits_ns = [] }
    else None
  in
  let conn = { fd; timing; overhead } in
  let rng = Rng.create ~seed:(seed + (1000 * (index + 1))) in
  let requests = ref 0 and failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let submit_us = ref [] and sync_ms = ref [] in
  let tentatives = ref 0 and increments = ref 0. in
  let syncs = ref [] in
  let call request ~expect =
    incr requests;
    let t0 = Probe.now_ns () in
    let response = rpc conn request in
    let t1 = Probe.now_ns () in
    let ns = Probe.ns_between t0 t1 in
    Option.iter (fun t -> t.request_ns <- t.request_ns +. ns) timing;
    if not (expect response) then
      fail "connection %d: unexpected reply" index;
    (t0, t1)
  in
  let submit ~expect =
    let ops = gen_ops rng ~db_size:c.db_size in
    let t0, t1 = call (Protocol.Submit ops) ~expect in
    submit_us := (Probe.ns_between t0 t1 *. 1e-3) :: !submit_us;
    increments := !increments +. delta_sum ops
  in
  let query () =
    ignore
      (call
         (Protocol.Query (Oid.of_int (Rng.int rng c.db_size)))
         ~expect:(function Protocol.Value _ -> true | _ -> false))
  in
  let submitted = ref 0 in
  (try
     match c.mix with
     | Churn { burst } ->
         while !submitted < transactions do
           ignore
             (call (Protocol.Set_connected false) ~expect:(function
               | Protocol.Done -> true
               | _ -> false));
           for _ = 1 to min burst (transactions - !submitted) do
             submit ~expect:(function Protocol.Tentative -> true | _ -> false);
             incr submitted;
             incr tentatives
           done;
           let t0, t1 =
             call Protocol.Sync ~expect:(function Protocol.Synced -> true | _ -> false)
           in
           sync_ms := (Probe.ns_between t0 t1 *. 1e-6) :: !sync_ms;
           if traced then syncs := (t0, t1) :: !syncs;
           query ()
         done
     | Connected { submit_share } ->
         while !submitted < transactions do
           if Rng.float rng 1.0 < submit_share then begin
             submit ~expect:(function Protocol.Committed _ -> true | _ -> false);
             incr submitted
           end
           else query ()
         done
   with
  | Closed -> fail "connection %d: server closed" index
  | Dangers_runtime.Codec.Malformed message ->
      fail "connection %d: malformed reply: %s" index message
  | Unix.Unix_error (e, fn, _) ->
      fail "connection %d: %s: %s" index fn (Unix.error_message e));
  {
    requests = !requests;
    failures = !failures;
    submit_us = !submit_us;
    sync_ms = !sync_ms;
    syncs = !syncs;
    tentatives = !tentatives;
    increments = !increments;
    timing;
  }

(* --- the runtime's timer accuracy: how late a wall-clock [Live_clock]
   fires a timer armed for [delay], the wait every base-transaction action
   pays --- *)

let timer_lateness_us ~delay ~count =
  let clock = Live_clock.create Live_clock.Wall in
  let late = ref [] in
  let rec arm n =
    if n > 0 then begin
      let due = Live_clock.now clock +. delay in
      ignore
        (Live_clock.schedule clock ~delay (fun () ->
             late := ((Live_clock.now clock -. due) *. 1e6) :: !late;
             arm (n - 1)))
    end
  in
  arm count;
  Live_clock.run clock;
  !late

(* --- one repetition --- *)

let wait_for_server path ~pid =
  let deadline = Int64.add (Probe.now_ns ()) 10_000_000_000L in
  let rec attempt () =
    match connect path with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if Int64.compare (Probe.now_ns ()) deadline > 0 then
          failwith "server never accepted a connection";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "server exited during start-up");
        Unix.sleepf 0.0002;
        attempt ()
  in
  attempt ()

let hello fd =
  match plain_rpc fd Protocol.Hello with
  | Protocol.Assigned _ -> ()
  | _ -> failwith "unexpected Hello reply"

let split_evenly total parts i = (total / parts) + if i < total mod parts then 1 else 0

let sum_of xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum_of xs /. float_of_int (List.length xs)

(* After the measured window, over a fresh connection: every tentative
   transaction was accepted, and the master copies hold exactly the sum of
   every submitted increment. *)
let check_final c ctl loads ~fail =
  let tentatives = List.fold_left (fun acc l -> acc + l.tentatives) 0 loads in
  let expected = sum_of (List.map (fun l -> l.increments) loads) in
  (match plain_rpc ctl Protocol.Stats with
  | Protocol.Stats_reply s ->
      if s.Protocol.tentative_accepted <> tentatives then
        fail
          (Printf.sprintf "server accepted %d tentative transactions, %d were submitted"
             s.Protocol.tentative_accepted tentatives);
      if s.Protocol.tentative_rejected <> 0 then
        fail
          (Printf.sprintf "server rejected %d transactions" s.Protocol.tentative_rejected)
  | _ -> fail "unexpected Stats reply");
  let master_sum =
    sum_of
      (List.init c.db_size (fun i ->
           match plain_rpc ctl (Protocol.Query (Oid.of_int i)) with
           | Protocol.Value v -> v
           | _ ->
               fail "unexpected Query reply";
               0.))
  in
  if not (Float.equal master_sum expected) then
    fail
      (Printf.sprintf "master values sum to %g, submitted increments to %g" master_sum
         expected)

let untraced_values c loads ~run_s =
  let submit_us = List.concat_map (fun l -> l.submit_us) loads in
  let sync_ms = List.concat_map (fun l -> l.sync_ms) loads in
  let pct xs p = match xs with [] -> 0. | _ -> Quantiles.percentile xs ~p in
  [
    ("live.throughput_tps", float_of_int c.transactions /. run_s);
    ("live.submit_us.p50", pct submit_us 0.5);
    ("live.submit_us.p99", pct submit_us 0.99);
    ("live.submit_us.p999", pct submit_us 0.999);
  ]
  @
  match sync_ms with
  | [] -> []
  | _ -> [ ("live.sync_ms.p50", pct sync_ms 0.5); ("live.sync_ms.p99", pct sync_ms 0.99) ]

(* Client spans: request = encode + write + wait + decode + residual;
   wait = the server's own handling + transport (the residual). *)
let traced_values name loads ~snap ~server_gc =
  let requests = float_of_int (List.fold_left (fun acc l -> acc + l.requests) 0 loads) in
  let timings = List.filter_map (fun l -> l.timing) loads in
  let mean_ns f = sum_of (List.map f timings) /. Float.max 1. requests in
  let waits = List.concat_map (fun t -> t.waits_ns) timings in
  let encode = mean_ns (fun t -> t.encode_ns) and write = mean_ns (fun t -> t.write_ns) in
  let wait = mean waits and decode = mean_ns (fun t -> t.decode_ns) in
  let request = mean_ns (fun t -> t.request_ns) in
  let residual = request -. (encode +. write +. wait +. decode) in
  let handle = Probe.histogram_mean snap "serve.request_seconds" *. 1e9 in
  let events = Probe.counter snap "engine.events_fired_total" in
  let gc key = Json.to_float (Json.member key server_gc) in
  let late =
    timer_lateness_us ~delay:1e-6 ~count:500 @ timer_lateness_us ~delay:1e-5 ~count:500
  in
  let values =
    [
      ("live.encode_ns.mean", encode);
      ("live.write_us.mean", write *. 1e-3);
      ("live.wait_us.p50", Quantiles.percentile waits ~p:0.5 *. 1e-3);
      ("live.wait_us.p99", Quantiles.percentile waits ~p:0.99 *. 1e-3);
      ("live.decode_ns.mean", decode);
      ("serve.handle_us.mean", handle *. 1e-3);
      ("serve.transport_us.mean", (wait -. handle) *. 1e-3);
      ("layers.residual_share", residual /. request);
      ("engine.events", events);
      ( "two_tier.commit_us.mean",
        Probe.histogram_mean snap "scheme.commit_seconds" *. 1e6 );
      ( "two_tier.reconcile_lag_us.mean",
        Probe.histogram_mean snap "two_tier.reconcile_lag_seconds" *. 1e6 );
      ( "two_tier.replayed",
        Probe.counter snap "scheme.tentative_accepted_total"
        +. Probe.counter snap "scheme.tentative_rejected_total" );
      ("gc.minor_words_per_event", gc "minor_words" /. Float.max 1. events);
      ("gc.promoted_words_per_event", gc "promoted_words" /. Float.max 1. events);
      ("gc.major_collections", gc "major_collections");
      ("live_clock.timer_late_us.p50", Quantiles.percentile late ~p:0.5);
      ("live_clock.timer_late_us.p99", Quantiles.percentile late ~p:0.99);
    ]
    @ Probe.layer_counters (Probe.counter snap)
  in
  let note =
    Printf.sprintf
      "layers %s: request mean %.2f us = encode %.2f + write %.2f + wait %.2f + \
       decode %.2f + residual %.2f (%.1f%%); wait %.2f us = server handle %.2f \
       + transport %.2f"
      name (request *. 1e-3) (encode *. 1e-3) (write *. 1e-3) (wait *. 1e-3)
      (decode *. 1e-3) (residual *. 1e-3) (100. *. residual /. request) (wait *. 1e-3)
      (handle *. 1e-3) ((wait -. handle) *. 1e-3)
  in
  (values, note)

let rep c ~name ~exe ~seed ~spawned_at ~traced ~overhead ~recorder ~obs ~socket =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let server =
    Unix.create_process exe
      (Array.of_list (exe :: serve_argv ~socket ~seed c))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill server Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server)
      end;
      Unix.close out_r)
  @@ fun () ->
  let fds =
    Probe.span recorder "setup" (fun () ->
        let first = wait_for_server socket ~pid:server in
        let fds = first :: List.init (c.connections - 1) (fun _ -> connect socket) in
        List.iter hello fds;
        fds)
  in
  let setup_s = Probe.seconds_since spawned_at in
  let t0 = Probe.now_ns () in
  let loads =
    Probe.span recorder "measured" (fun () ->
        List.mapi
          (fun index fd ->
            let transactions = split_evenly c.transactions c.connections index in
            Domain.spawn (fun () ->
                drive c ~seed ~index ~fd ~traced ~overhead ~transactions))
          fds
        |> List.map Domain.join)
  in
  let run_s = Probe.seconds_since t0 in
  List.iter Unix.close fds;
  List.iteri
    (fun i l ->
      List.iter
        (fun (start, stop) -> Probe.record recorder ~tid:(i + 1) "sync" ~start ~stop)
        l.syncs)
    loads;
  let failures = ref (List.concat_map (fun l -> l.failures) loads) in
  let fail message = failures := message :: !failures in
  let ctl = wait_for_server socket ~pid:server in
  hello ctl;
  (* Scraped before the checks, so their queries stay out of it. *)
  let snap =
    if not traced then None
    else
      match plain_rpc ctl Protocol.Metrics_snapshot with
      | Protocol.Metrics_json text -> Some (Obs.snapshot_of_json (Json.of_string text))
      | _ -> failwith "unexpected Metrics_snapshot reply"
  in
  check_final c ctl loads ~fail;
  let rss_mb = Probe.peak_rss_mb (Some server) in
  (match plain_rpc ctl Protocol.Shutdown with
  | Protocol.Done -> ()
  | _ -> fail "unexpected Shutdown reply");
  Unix.close ctl;
  ignore (Unix.waitpid [] server);
  reaped := true;
  let server_gc = Json.of_string (Probe.read_all out_r) in
  let values, notes =
    match snap with
    | None -> (untraced_values c loads ~run_s, [])
    | Some snap ->
        let waits = Probe.ns_histogram obs "live.wait_ns" in
        List.iter
          (fun l ->
            Option.iter (fun t -> List.iter (Obs.observe waits) t.waits_ns) l.timing)
          loads;
        let values, note = traced_values name loads ~snap ~server_gc in
        (values, [ note ])
  in
  {
    Rep.setup_s;
    run_s;
    rss_mb;
    attempted = List.fold_left (fun acc l -> acc + l.requests) 0 loads;
    failures = !failures;
    digest =
      Rep.digest
        (Printf.sprintf "%d %h"
           (List.fold_left (fun acc l -> acc + l.tentatives) 0 loads)
           (sum_of (List.map (fun l -> l.increments) loads)));
    values;
    notes;
  }
