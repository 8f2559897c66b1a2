(* One benchmark run: repeat a workload in fresh processes for the
   requested wall time, check every repetition's outputs, and reduce the
   repetitions to the metrics BENCHMARK.json names — end-to-end metrics
   from untraced repetitions only, per-layer metrics from a traced pass
   that follows an untraced one (the difference is the tracing
   overhead). *)

module Json = Dangers_obs.Json

type run = {
  workload : string;
  seed : int;
  traced : bool;
  untraced : Rep.t list;
  traced_reps : Rep.t list;
  failures : string list;
  attempted : int;
  metrics : (Spec.metric * float) list;
  notes : string list;
}

let last_line text =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)) with
  | line :: _ -> Some line
  | [] -> None

(* A fresh process per repetition keeps peak RSS and heap state
   per-repetition; the child reports set-up time from [spawned_at], taken
   just before the spawn. *)
let spawn_rep (w : Workload.t) ~seed ~traced ~index =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let spawned_at = Probe.now_ns () in
  let pid =
    Unix.create_process exe
      [|
        exe; "__rep"; Json.to_string (Workload.to_json w); string_of_int seed;
        (if traced then "1" else "0"); Int64.to_string spawned_at; string_of_int index;
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let output =
    Fun.protect ~finally:(fun () -> Unix.close out_r) (fun () -> Probe.read_all out_r)
  in
  match (Unix.waitpid [] pid, last_line output) with
  | (_, Unix.WEXITED 0), Some line -> Ok (Rep.of_json (Json.of_string line))
  | (_, Unix.WEXITED 0), None ->
      Error (Printf.sprintf "repetition %d printed no result" index)
  | (_, Unix.WEXITED code), _ ->
      Error (Printf.sprintf "repetition %d exited with %d" index code)
  | (_, (Unix.WSIGNALED s | Unix.WSTOPPED s)), _ ->
      Error (Printf.sprintf "repetition %d killed by signal %d" index s)

(* Repeat until [window] seconds have passed and at least [min_reps] ran;
   stop at the first repetition that fails. *)
let repeat w ~seed ~traced ~window ~min_reps ~first_index =
  let t0 = Probe.now_ns () in
  let rec loop acc index =
    if List.length acc >= min_reps && Probe.seconds_since t0 >= window then
      (List.rev acc, [])
    else
      match spawn_rep w ~seed ~traced ~index with
      | Ok rep -> loop (rep :: acc) (index + 1)
      | Error message -> (List.rev acc, [ message ])
  in
  loop [] first_index

let e2e_values reps =
  let med f = Quantiles.median (List.map f reps) in
  [
    ("setup_s", med (fun r -> r.Rep.setup_s));
    ("run_s", med (fun r -> r.Rep.run_s));
    ("peak_rss_mb", med (fun r -> r.Rep.rss_mb));
  ]

(* Each per-layer value is the median over the repetitions that measured
   it: client latencies come from the untraced repetitions, span timings
   and counters from the traced ones. *)
let layer_values ~untraced ~traced =
  let keys =
    List.sort_uniq String.compare
      (List.concat_map (fun r -> List.map fst r.Rep.values) (untraced @ traced))
  in
  let median_of key =
    Quantiles.median
      (List.filter_map (fun r -> List.assoc_opt key r.Rep.values) (untraced @ traced))
  in
  let overhead =
    match (untraced, traced) with
    | _ :: _, _ :: _ ->
        let run reps = Quantiles.median (List.map (fun r -> r.Rep.run_s) reps) in
        [ ("trace.overhead_share", (run traced /. run untraced) -. 1.) ]
    | _ -> []
  in
  List.map (fun key -> (key, median_of key)) keys @ overhead

let check_digests reps ~reference =
  let digests = List.sort_uniq String.compare (List.map (fun r -> r.Rep.digest) reps) in
  (match digests with
  | [] | [ _ ] -> []
  | _ :: _ :: _ as distinct ->
      [ Printf.sprintf "repetitions disagree: %d distinct outputs" (List.length distinct) ])
  @
  match (reference, digests) with
  | Some expected, [ got ] when not (String.equal expected got) ->
      [ "outputs differ from the reference computation" ]
  | _ -> []

let run ~(spec : Spec.t) (w : Workload.t) ~seed ~seconds ~trace =
  Workload.ensure_work_dir ();
  let window = if trace then seconds /. 2. else seconds in
  let untraced, spawn_failures =
    repeat w ~seed ~traced:false ~window ~min_reps:3 ~first_index:0
  in
  let traced, traced_failures =
    if trace && spawn_failures = [] then
      repeat w ~seed ~traced:true ~window ~min_reps:1 ~first_index:(List.length untraced)
    else ([], [])
  in
  let reps = untraced @ traced in
  let reference = Workload.reference_digest w ~seed in
  let failures =
    spawn_failures @ traced_failures
    @ List.concat_map (fun r -> r.Rep.failures) reps
    @ check_digests reps ~reference
  in
  let values =
    match untraced with
    | [] -> []
    | _ -> if trace then layer_values ~untraced ~traced else e2e_values untraced
  in
  let wanted = if trace then spec.per_layer else spec.end_to_end in
  let metrics, missing =
    List.fold_right
      (fun (m : Spec.metric) (found, missing) ->
        match List.assoc_opt m.name values with
        | Some v -> ((m, v) :: found, missing)
        (* A per-layer metric of a layer this workload does not exercise. *)
        | None when trace -> ((m, 0.) :: found, missing)
        | None -> (found, m.name :: missing))
      wanted ([], [])
  in
  {
    workload = w.name;
    seed;
    traced = trace;
    untraced;
    traced_reps = traced;
    failures =
      failures @ List.map (fun name -> "metric not measured: " ^ name) missing;
    attempted = List.fold_left (fun acc r -> acc + r.Rep.attempted) 0 reps;
    metrics;
    notes = List.concat_map (fun r -> r.Rep.notes) traced;
  }

let correct r = r.failures = []

let result_fields r =
  [
    ("correct", Json.Bool (correct r));
    ("attempted", Json.int_ (max 1 r.attempted));
    ("failed", Json.int_ (List.length r.failures));
    ( "metrics",
      Json.Obj
        (List.map
           (fun ((m : Spec.metric), v) ->
             ( m.name,
               Json.Obj [ ("value", Json.of_float v); ("unit", Json.Str m.unit_) ] ))
           r.metrics) );
  ]

(* The result line the benchmark's caller reads. *)
let result_json r = Json.Obj (result_fields r)

(* The same, with the run's identity and raw repetitions, for --out. *)
let record_json r =
  Json.Obj
    ([
       ("workload", Json.Str r.workload);
       ("seed", Json.int_ r.seed);
       ("trace", Json.Bool r.traced);
     ]
    @ result_fields r
    @ [
        ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
        ("untraced_reps", Json.Arr (List.map Rep.to_json r.untraced));
        ("traced_reps", Json.Arr (List.map Rep.to_json r.traced_reps));
      ])

let print r =
  Printf.printf "%s seed %d: %d untraced and %d traced repetition(s)\n" r.workload r.seed
    (List.length r.untraced) (List.length r.traced_reps);
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "  %-40s %14.6g %s\n" m.name v m.unit_)
    r.metrics;
  (match r.untraced with
  | _ :: _ :: _ ->
      let spread f = 100. *. Quantiles.spread (List.map f r.untraced) in
      Printf.printf
        "  spread (q3 - q1) / median over untraced repetitions: run_s %.1f%%, \
         setup_s %.1f%%\n"
        (spread (fun rep -> rep.Rep.run_s))
        (spread (fun rep -> rep.Rep.setup_s))
  | _ -> ());
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures;
  print_endline (Json.to_string (result_json r))

(* --- comparing two result files, as a later change is compared with its
   parent --- *)

let load_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.of_string

let e2e_record records workload =
  List.find_opt
    (fun j ->
      String.equal (Json.string_of (Json.member "workload" j)) workload
      && not (match Json.member "trace" j with Json.Bool b -> b | _ -> false))
    records

let metric_value record name =
  Json.to_float (Json.member "value" (Json.member name (Json.member "metrics" record)))

(* Every end-to-end metric of every workload in [cand] against [base]:
   one line each, and whether any got worse by more than its bound. *)
let compare ~(spec : Spec.t) ~base ~cand =
  let base = load_records base and cand = load_records cand in
  let lines =
    List.concat_map
      (fun workload ->
        match (e2e_record base workload, e2e_record cand workload) with
        | Some b, Some c ->
            List.map
              (fun (m : Spec.metric) ->
                let base = metric_value b m.name and cand = metric_value c m.name in
                let regressed = Spec.regressed m ~base ~cand in
                ( Printf.sprintf "%-20s %-12s %12.6g -> %12.6g %+7.1f%% (bound %.0f%%)%s"
                    workload m.name base cand
                    (100. *. Spec.worsening m.better ~base ~cand)
                    (100. *. Option.value ~default:0. m.bound)
                    (if regressed then "  REGRESSED" else ""),
                  regressed ))
              spec.end_to_end
        | _ -> [])
      spec.workloads
  in
  (List.map fst lines, List.exists snd lines)
