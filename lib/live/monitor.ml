module Obs = Dangers_obs.Metrics
module Json = Dangers_obs.Json

type t = {
  fd : Unix.file_descr;
  mutable prev : (float * Obs.snapshot) option;
}

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  { fd; prev = None }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t request =
  Protocol.send t.fd Protocol.request request;
  match Protocol.recv t.fd Protocol.response with
  | Some response -> response
  | None -> failwith "monitor: server closed the connection"

let unexpected response =
  ignore response;
  failwith "monitor: unexpected response from server"

let stats t =
  match rpc t Protocol.Stats with
  | Protocol.Stats_reply s -> s
  | r -> unexpected r

let snapshot_json t =
  match rpc t Protocol.Metrics_snapshot with
  | Protocol.Metrics_json json -> json
  | r -> unexpected r

let prom t =
  match rpc t Protocol.Metrics_prom with
  | Protocol.Metrics_text text -> text
  | r -> unexpected r

type frame = {
  f_time : float;  (** client wall clock when the scrape returned *)
  f_dt : float;  (** seconds since the previous {!poll}; 0 on the first *)
  f_snapshot : Obs.snapshot;
  f_prev : Obs.snapshot option;
}

let poll t =
  let snapshot = Obs.snapshot_of_json (Json.of_string (snapshot_json t)) in
  let now = Unix.gettimeofday () in
  let prev_time, prev_snapshot =
    match t.prev with
    | Some (time, s) -> (time, Some s)
    | None -> (now, None)
  in
  t.prev <- Some (now, snapshot);
  { f_time = now; f_dt = now -. prev_time; f_snapshot = snapshot; f_prev = prev_snapshot }

(* --- rendering --- *)

let counter_rate frame name =
  match (frame.f_prev, Obs.snapshot_counter frame.f_snapshot name) with
  | None, _ | _, None -> None
  | Some prev, Some cur when frame.f_dt > 0. ->
      let before =
        match Obs.snapshot_counter prev name with Some v -> v | None -> 0
      in
      Some (float_of_int (cur - before) /. frame.f_dt)
  | Some _, Some _ -> None

let pp_rate ppf = function
  | None -> Format.fprintf ppf "%8s" "-"
  | Some rate -> Format.fprintf ppf "%8.1f" rate

let quantiles frame name =
  Option.map
    (fun h ->
      ( Obs.histogram_quantile h ~q:0.5,
        Obs.histogram_quantile h ~q:0.9,
        Obs.histogram_quantile h ~q:0.99,
        h.Obs.hs_count ))
    (Obs.snapshot_histogram frame.f_snapshot name)

(* The per-mobile gauge families Two_tier registers, recovered from the
   snapshot's flat namespace. *)
let mobile_rows frame =
  let prefix = "two_tier.mobile." in
  let plen = String.length prefix in
  let rows : (string, float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, value) ->
      if String.length name > plen && String.sub name 0 plen = prefix then
        match String.index_from_opt name plen '.' with
        | None -> ()
        | Some dot ->
            let id = String.sub name plen (dot - plen) in
            let field = String.sub name (dot + 1) (String.length name - dot - 1) in
            let depth, age =
              match Hashtbl.find_opt rows id with
              | Some pair -> pair
              | None -> (0., 0.)
            in
            if field = "tentative_queue_depth" then
              Hashtbl.replace rows id (value, age)
            else if field = "oldest_tentative_age_seconds" then
              Hashtbl.replace rows id (depth, value))
    frame.f_snapshot.Obs.s_gauges;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun id pair acc -> (id, pair) :: acc) rows [])

let render frame =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let gauge name =
    match Obs.snapshot_gauge frame.f_snapshot name with Some v -> v | None -> 0.
  in
  let counter name =
    match Obs.snapshot_counter frame.f_snapshot name with Some v -> v | None -> 0
  in
  out "dangers stat — commits %d, tentative %d, syncs %d, warnings %d\n"
    (counter "scheme.commits_total")
    (counter "scheme.tentative_commits_total")
    (counter "scheme.syncs_total")
    frame.f_snapshot.Obs.s_warnings_total;
  out "\n%-28s %8s\n" "rate (per second)" "now";
  List.iter
    (fun (label, name) ->
      out "%-28s %s\n" label
        (Format.asprintf "%a" pp_rate (counter_rate frame name)))
    [
      ("commits", "scheme.commits_total");
      ("tentative commits", "scheme.tentative_commits_total");
      ("syncs", "scheme.syncs_total");
      ("reconciliations", "scheme.reconciliations_total");
      ("replica applied", "scheme.replica_applied_total");
    ];
  out "\n%-28s %9s %9s %9s %8s\n" "latency (seconds)" "p50" "p90" "p99" "n";
  List.iter
    (fun (label, name) ->
      match quantiles frame name with
      | None -> ()
      | Some (p50, p90, p99, n) ->
          out "%-28s %9.4f %9.4f %9.4f %8d\n" label p50 p90 p99 n)
    [
      ("submit -> commit", "scheme.commit_seconds");
      ("reconcile lag", "two_tier.reconcile_lag_seconds");
      ("request service", "serve.request_seconds");
    ];
  out "\nserver gc: %.0f major collection(s), heap %.1f MiB\n"
    (gauge "serve.gc.major_collections")
    (gauge "serve.gc.heap_words" *. float_of_int (Sys.word_size / 8) /. 1048576.);
  out "replication lag: queue depth %.0f, oldest tentative %.1fs\n"
    (gauge "two_tier.tentative_queue_depth")
    (gauge "two_tier.oldest_tentative_age_seconds");
  (match mobile_rows frame with
  | [] -> ()
  | rows ->
      out "%-8s %12s %12s\n" "mobile" "queue" "oldest age";
      List.iter
        (fun (id, (depth, age)) -> out "%-8s %12.0f %11.1fs\n" id depth age)
        rows);
  Buffer.contents buf
