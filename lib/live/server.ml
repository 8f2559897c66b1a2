module Clock = Dangers_runtime.Clock
module Codec = Dangers_runtime.Codec
module Params = Dangers_analytic.Params
module Connectivity = Dangers_net.Connectivity
module Two_tier = Dangers_core.Two_tier
module Common = Dangers_replication.Common
module Obs = Dangers_obs.Metrics
module Json = Dangers_obs.Json
module Timeseries = Dangers_obs.Timeseries
module Prometheus = Dangers_obs.Prometheus
module Warnings = Dangers_obs.Warnings
module Oid = Dangers_storage.Oid

type config = {
  socket_path : string;
  base_nodes : int;
  params : Params.t;
  seed : int;
  metrics_out : string option;
  series_out : string option;
  sample_interval : float;
  quiet : bool;
  print_summary : bool;
}

type client = {
  fd : Unix.file_descr;
  node : int;
  splitter : Protocol.Splitter.t;
  mutable alive : bool;
}

type t = {
  config : config;
  sys : Two_tier.t;
  clock : Clock.t;
  obs : Obs.t;
  request_seconds : Obs.histogram;
  series : Timeseries.t;
  series_oc : out_channel option;
  mutable next_sample : float;
  listen_fd : Unix.file_descr;
  read_buf : Bytes.t;
      (* every client read lands here; safe because the loop runs on one
         domain and each read is fed to its client's splitter at once *)
  mutable clients : client list;
  mutable next_mobile : int;
  (* Sync requests waiting for a mobile's replay to finish, keyed by
     mobile index (node - base_count). *)
  sync_waiters : (int, (unit -> unit) Queue.t) Hashtbl.t;
  mutable shutdown : bool;
}

let log t fmt =
  if t.config.quiet then Printf.ifprintf stderr fmt
  else Printf.eprintf (fmt ^^ "\n%!")

let scheme_stats t =
  let stats = (Two_tier.base t.sys).Common.stats in
  {
    Protocol.commits = (Two_tier.summary t.sys).Dangers_replication.Repl_stats.commits;
    tentative_accepted = Two_tier.tentative_accepted t.sys;
    tentative_rejected = Two_tier.tentative_rejected t.sys;
    scope_violations =
      Dangers_sim.Metrics.total stats.Dangers_replication.Repl_stats.scope_violations;
    warnings_total = Warnings.total ();
    warnings = Warnings.keys ();
  }

(* One window per [sample_interval] of wall time, taken from the idle
   waiter — the same place client I/O is serviced, so sampling never races
   scheme events. Each window streams to [series_out] as it is taken,
   giving a crash-readable series. *)
let emit_sample t =
  let now = Clock.now t.clock in
  let window = Timeseries.sample t.series ~now in
  (match t.series_oc with
  | None -> ()
  | Some oc ->
      output_string oc (Json.to_string (Timeseries.window_to_json window));
      output_char oc '\n';
      flush oc);
  t.next_sample <- now +. Timeseries.interval t.series

let maybe_sample t =
  if Clock.now t.clock >= t.next_sample then emit_sample t

let respond _t client response =
  if client.alive then
    try Protocol.send client.fd Protocol.response response
    with Unix.Unix_error _ -> client.alive <- false

let drop_client t client =
  if client.alive then begin
    client.alive <- false;
    (try Unix.close client.fd with Unix.Unix_error _ -> ())
  end;
  t.clients <- List.filter (fun c -> c != client) t.clients

(* Answer [Sync] once the mobile's replay completes: the scheme's
   [on_sync] listener fires after protocol step 4 and drains the queue of
   waiting responders for that mobile. *)
let await_sync t ~node k =
  let mobile = node - Two_tier.base_count t.sys in
  let queue =
    match Hashtbl.find_opt t.sync_waiters mobile with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add t.sync_waiters mobile q;
        q
  in
  Queue.add k queue

let handle_request t client request =
  let started = Clock.now t.clock in
  let finish response =
    Obs.observe t.request_seconds (Clock.now t.clock -. started);
    respond t client response
  in
  match request with
  | Protocol.Hello ->
      finish
        (Protocol.Assigned
           {
             node = client.node;
             base_nodes = Two_tier.base_count t.sys;
             nodes = t.config.params.Params.nodes;
           })
  | Protocol.Set_connected state ->
      Two_tier.set_node_connected t.sys ~node:client.node state;
      finish Protocol.Done
  | Protocol.Submit ops -> (
      match
        Two_tier.submit_with t.sys ~node:client.node ops
          ~on_result:(fun result ->
            finish
              (match result with
              | `Committed results -> Protocol.Committed results
              | `Rejected reason -> Protocol.Rejected reason
              | `Tentative -> Protocol.Tentative
              | `Scope_violation -> Protocol.Scope_violation))
      with
      | () -> ()
      | exception Invalid_argument message -> finish (Protocol.Error message))
  | Protocol.Sync ->
      await_sync t ~node:client.node (fun () -> finish Protocol.Synced);
      (* Reconnecting triggers the sync; if already connected, bounce the
         node so an empty replay still completes a sync and answers. *)
      Two_tier.set_node_connected t.sys ~node:client.node false;
      Two_tier.set_node_connected t.sys ~node:client.node true
  | Protocol.Query oid -> (
      match Two_tier.master_value t.sys oid with
      | value -> finish (Protocol.Value value)
      | exception Invalid_argument message -> finish (Protocol.Error message))
  | Protocol.Stats -> finish (Protocol.Stats_reply (scheme_stats t))
  | Protocol.Metrics_snapshot ->
      let json = Obs.snapshot_to_json (Obs.snapshot t.obs) in
      finish (Protocol.Metrics_json (Json.to_string json ^ "\n"))
  | Protocol.Metrics_prom ->
      finish (Protocol.Metrics_text (Prometheus.of_snapshot (Obs.snapshot t.obs)))
  | Protocol.Shutdown ->
      finish Protocol.Done;
      t.shutdown <- true;
      Clock.stop t.clock

let handle_payload t client payload =
  match Protocol.of_payload Protocol.request payload with
  | request -> handle_request t client request
  | exception Codec.Malformed message ->
      log t "serve: dropping client (malformed request: %s)" message;
      respond t client (Protocol.Error ("malformed request: " ^ message));
      drop_client t client

let read_client t client =
  match Unix.read client.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> drop_client t client
  | n ->
      Protocol.Splitter.feed client.splitter t.read_buf n;
      let continue = ref true in
      while !continue && client.alive do
        match Protocol.Splitter.next client.splitter with
        | Some payload -> handle_payload t client payload
        | None -> continue := false
        | exception Codec.Malformed message ->
            log t "serve: dropping client (%s)" message;
            drop_client t client
      done
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> drop_client t client

let accept_client t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      if t.next_mobile >= t.config.params.Params.nodes then begin
        (* Mobile pool exhausted: recycle round-robin; concurrent clients
           sharing a mobile see each other's connectivity toggles. *)
        t.next_mobile <- Two_tier.base_count t.sys
      end;
      let node = t.next_mobile in
      t.next_mobile <- t.next_mobile + 1;
      let client =
        { fd; node; splitter = Protocol.Splitter.create (); alive = true }
      in
      t.clients <- client :: t.clients;
      log t "serve: client connected as mobile node %d" node
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()

(* The idle waiter: the wall-clock run loop parks here whenever no timer
   is due, so client I/O is serviced between scheme events on the same
   domain — requests can call straight into the scheme. *)
let wait_io t ~timeout =
  maybe_sample t;
  let fds = t.listen_fd :: List.map (fun c -> c.fd) t.clients in
  match Unix.select fds [] [] (Float.min timeout 0.05) with
  | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = t.listen_fd then accept_client t
          else
            match List.find_opt (fun c -> c.fd = fd) t.clients with
            | Some client -> read_client t client
            | None -> ())
        readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let validate_snapshot_json json =
  (* Self-check: the exported snapshot must round-trip through the
     dangers/metrics/v1 parser — a malformed export fails loudly here
     rather than downstream. *)
  ignore (Obs.snapshot_of_json (Json.of_string (Json.to_string json)))

let write_metrics t =
  let snapshot = Obs.snapshot t.obs in
  let json = Obs.snapshot_to_json snapshot in
  validate_snapshot_json json;
  match t.config.metrics_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string json ^ "\n");
      close_out oc;
      log t "serve: wrote %s" file

let serve config =
  Params.validate config.params;
  let obs = Obs.create () in
  let clock = Dangers_runtime.Live_clock.(create Wall) in
  (* Mobility is client-driven over the protocol, not scheduled: the
     base-node spec never cycles, so [Set_connected]/[Sync] are the only
     connectivity levers. *)
  let sys =
    Two_tier.create ~obs ~clock ~mobility:Connectivity.base_node
      ~base_nodes:config.base_nodes config.params ~seed:config.seed
  in
  (match Unix.stat config.socket_path with
  | _ -> Unix.unlink config.socket_path
  | exception Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  if not (config.sample_interval > 0.) then
    invalid_arg "Server.serve: sample_interval must be positive";
  let series =
    Timeseries.create ~interval:config.sample_interval
      ~now:(Clock.now clock) obs
  in
  let series_oc =
    Option.map
      (fun file ->
        let oc = open_out file in
        output_string oc
          (Json.to_string
             (Timeseries.header_json ~label:"serve" ~seed:config.seed series));
        output_char oc '\n';
        flush oc;
        oc)
      config.series_out
  in
  let t =
    {
      config;
      sys;
      clock;
      obs;
      request_seconds = Obs.histogram obs "serve.request_seconds";
      series;
      series_oc;
      next_sample = Clock.now clock +. config.sample_interval;
      listen_fd;
      read_buf = Bytes.create 65536;
      clients = [];
      next_mobile = Two_tier.base_count sys;
      sync_waiters = Hashtbl.create 16;
      shutdown = false;
    }
  in
  (* Heap pressure of the serving process, read only at snapshot time. *)
  Obs.register_source obs (fun () ->
      let gc = Gc.quick_stat () in
      [
        Obs.Gauge ("serve.gc.major_collections", float_of_int gc.Gc.major_collections);
        Obs.Gauge ("serve.gc.major_words", gc.Gc.major_words);
        Obs.Gauge ("serve.gc.heap_words", float_of_int gc.Gc.heap_words);
      ]);
  Two_tier.on_sync sys (fun ~mobile ->
      match Hashtbl.find_opt t.sync_waiters mobile with
      | None -> ()
      | Some queue ->
          while not (Queue.is_empty queue) do
            (Queue.pop queue) ()
          done);
  Clock.set_idle_waiter clock (Some (fun ~timeout -> wait_io t ~timeout));
  let previous_sigint =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           t.shutdown <- true;
           Clock.stop clock))
  in
  log t "serve: two-tier on %s (%d base node(s), %d mobile slot(s), seed %d)"
    config.socket_path config.base_nodes
    (config.params.Params.nodes - config.base_nodes)
    config.seed;
  (try Clock.run clock
   with exn ->
     Sys.set_signal Sys.sigint previous_sigint;
     raise exn);
  Sys.set_signal Sys.sigint previous_sigint;
  Clock.set_idle_waiter clock None;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  (* A final window captures whatever landed after the last tick. *)
  emit_sample t;
  (match (t.series_oc, config.series_out) with
  | Some oc, Some path ->
      close_out oc;
      log t "serve: wrote %d series window(s) to %s"
        (Timeseries.sampled t.series) path
  | Some oc, None -> close_out oc
  | None, _ -> ());
  write_metrics t;
  let stats = scheme_stats t in
  if config.print_summary then
    Printf.printf
      "serve: done after %.3fs wall — %d base commit(s), %d tentative \
       accepted, %d rejected, %d scope violation(s)\n%!"
      (Clock.now clock) stats.Protocol.commits
      stats.Protocol.tentative_accepted stats.Protocol.tentative_rejected
      stats.Protocol.scope_violations;
  stats
