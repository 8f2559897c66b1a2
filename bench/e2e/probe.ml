module Json = Dangers_obs.Json
module Obs = Dangers_obs.Metrics

let now_ns = Monotonic_clock.now
let ns_between a b = Int64.to_float (Int64.sub b a)
let seconds_since t0 = ns_between t0 (now_ns ()) *. 1e-9

(* What an empty span measures: the mean gap between back-to-back clock
   reads. The clock ticks in whole nanoseconds, so a median of single gaps
   would read the same integer on every run. *)
let span_overhead_ns () =
  let reads = 100_000 in
  let t0 = now_ns () in
  let last = ref t0 in
  for _ = 1 to reads do
    last := now_ns ()
  done;
  ns_between t0 !last /. float_of_int reads

(* Five buckets per decade from 10 ns to 1 s: fine enough that an
   interpolated p50 lands within a bucket's 1.6x width, few enough that
   [Obs.observe]'s linear bucket search stays a small share of a step. *)
let ns_histogram obs name =
  Obs.histogram obs name
    ~buckets:(Array.init 41 (fun i -> 10. *. (10. ** (float_of_int i /. 5.))))

let quantile obs name q =
  match Obs.snapshot_histogram (Obs.snapshot obs) name with
  | Some h -> Obs.histogram_quantile h ~q
  | None -> 0.

let counter snap name =
  float_of_int (Option.value ~default:0 (Obs.snapshot_counter snap name))

let histogram_mean snap name =
  match Obs.snapshot_histogram snap name with
  | Some h when h.hs_count > 0 -> h.hs_sum /. float_of_int h.hs_count
  | Some _ | None -> 0.

(* Lock, network and replication work, from the counters the layers
   already export to their registry ([counter] reads one by name). *)
let layer_counters counter =
  let commits = counter "scheme.commits_total" in
  let per_commit name = counter name /. Float.max 1. commits in
  [
    ("lock.waits", counter "scheme.waits_total");
    ("lock.deadlocks", counter "scheme.deadlocks_total");
    ("lock.dfs_visits", counter "lock.deadlock_dfs_visits_total");
    ( "lock.useful_share",
      commits /. Float.max 1. (commits +. counter "scheme.restarts_total") );
    ("net.messages_per_commit", per_commit "net.messages_sent_total");
    ("replication.replica_applied_per_commit", per_commit "scheme.replica_applied_total");
    ( "replication.reconciliations_per_commit",
      per_commit "scheme.reconciliations_total" );
  ]

(* /proc/<pid>/status "VmHWM:  12345 kB": the process's peak resident set. *)
let peak_rss_mb pid =
  let file =
    match pid with
    | None -> "/proc/self/status"
    | Some pid -> Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text file (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM line in " ^ file)
        | Some line -> (
            match String.split_on_char ':' line with
            | [ "VmHWM"; rest ] ->
                Scanf.sscanf (String.trim rest) "%d kB" (fun kb ->
                    float_of_int kb /. 1024.)
            | _ -> scan ())
      in
      scan ())

(* A runaway run — the partitioned engine's deadlock-probe storms have
   reached tens of GB — must fail this process, not exhaust the host. *)
let cap_heap ~mb =
  let limit = mb * 1024 * 1024 / (Sys.word_size / 8) in
  ignore
    (Gc.create_alarm (fun () ->
         if (Gc.quick_stat ()).Gc.heap_words > limit then begin
           prerr_endline (Printf.sprintf "heap above %d MB: stopping" mb);
           exit 3
         end))

let read_all fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ()

(* --- phase spans, exported in the Chrome trace-event shape that
   [dangers trace --chrome] writes --- *)

type span = { name : string; tid : int; start : int64; stop : int64 }
type recorder = { origin : int64; mutable spans : span list }

let recorder () = { origin = now_ns (); spans = [] }

let record r ?(tid = 0) name ~start ~stop =
  r.spans <- { name; tid; start; stop } :: r.spans

let span r ?tid name f =
  let start = now_ns () in
  let result = f () in
  record r ?tid name ~start ~stop:(now_ns ());
  result

let chrome r ~label =
  let us a b = Json.Num (ns_between a b /. 1e3) in
  let event s =
    Json.Obj
      [
        ("ph", Json.Str "X");
        ("pid", Json.int_ 1);
        ("tid", Json.int_ s.tid);
        ("ts", us r.origin s.start);
        ("dur", us s.start s.stop);
        ("name", Json.Str s.name);
        ("cat", Json.Str "phase");
      ]
  in
  let meta =
    Json.Obj
      [
        ("ph", Json.Str "M");
        ("pid", Json.int_ 1);
        ("name", Json.Str "process_name");
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  Json.Obj [ ("traceEvents", Json.Arr (meta :: List.rev_map event r.spans)) ]

let write_json path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
