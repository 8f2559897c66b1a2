(* The `dangers` command-line interface.

   Subcommands:
     list                      enumerate experiments and schemes
     experiment [IDS..]        regenerate paper tables/figures
     sweep [IDS..]             run an (experiment | scheme) x seed grid on a
                               Domain pool and export the results
     analytic                  print the closed-form predictions for a
                               parameter point (all schemes)
     simulate                  run one replication scheme under load and
                               print its measured summary
     scenario NAME             run a named workload scenario across schemes *)

module Params = Dangers_analytic.Params
module Model = Dangers_analytic.Model
module Table = Dangers_util.Table
module Experiment = Dangers_experiments.Experiment
module Registry = Dangers_experiments.Registry
module Scheme = Dangers_experiments.Scheme
module Sweep = Dangers_runner.Sweep
module Export = Dangers_runner.Export
module Task_pool = Dangers_runner.Task_pool
module Repl_stats = Dangers_replication.Repl_stats
module Scenario = Dangers_workload.Scenario
module Connectivity = Dangers_net.Connectivity
module Json = Dangers_obs.Json
module Obs = Dangers_obs.Metrics
module Trace = Dangers_sim.Trace
module Trace_export = Dangers_sim.Trace_export

open Cmdliner

(* --- shared parameter flags --- *)

let params_term =
  let db_size =
    Arg.(value & opt int Params.default.Params.db_size
         & info [ "db-size" ] ~doc:"Distinct objects in the database.")
  in
  let nodes =
    Arg.(value & opt int Params.default.Params.nodes
         & info [ "nodes" ] ~doc:"Number of replica nodes.")
  in
  let tps =
    Arg.(value & opt float Params.default.Params.tps
         & info [ "tps" ] ~doc:"Transactions per second per node.")
  in
  let actions =
    Arg.(value & opt int Params.default.Params.actions
         & info [ "actions" ] ~doc:"Updates per transaction.")
  in
  let action_time =
    Arg.(value & opt float Params.default.Params.action_time
         & info [ "action-time" ] ~doc:"Seconds per action.")
  in
  let disconnected =
    Arg.(value & opt float Params.default.Params.disconnected_time
         & info [ "disconnected-time" ] ~doc:"Mean disconnected seconds.")
  in
  let connected =
    Arg.(value & opt float Params.default.Params.time_between_disconnects
         & info [ "connected-time" ] ~doc:"Mean connected seconds.")
  in
  let build db_size nodes tps actions action_time disconnected connected =
    {
      Params.default with
      db_size;
      nodes;
      tps;
      actions;
      action_time;
      disconnected_time = disconnected;
      time_between_disconnects = connected;
    }
  in
  Term.(const build $ db_size $ nodes $ tps $ actions $ action_time
        $ disconnected $ connected)

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let jobs_term =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ]
           ~doc:"Worker domains for independent simulation tasks. Results \
                 are byte-identical at any value; only wall-clock changes. \
                 0 means one per core.")

let resolve_jobs jobs = if jobs = 0 then Task_pool.default_jobs () else jobs

let sim_domains_term =
  Arg.(value & opt int 1
       & info [ "sim-domains" ]
           ~docv:"N"
           ~doc:"Domains for the conservative parallel simulation engine \
                 $(i,inside) each run (as opposed to $(b,--jobs), which \
                 parallelises across independent runs). Results are \
                 byte-identical at any value; only schemes built on the \
                 parallel engine (see `dangers list`) get faster. 0 means \
                 one per core.")

(* The ambient budget is harmless for serial schemes (they never consult
   it), but silently ignoring an explicit request would read as a speedup
   that never happened — say so, on stderr, outside the deterministic
   stdout stream. *)
let note_serial_schemes ~sim_domains names =
  let sim_domains =
    if sim_domains = 0 then Task_pool.default_jobs () else sim_domains
  in
  if sim_domains > 1 then
    List.iter
      (fun name ->
        if not (Scheme.parallel_capable name) then
          Dangers_obs.Warnings.warn
            ~key:("cli.sim_domains.serial:" ^ name)
            (Printf.sprintf
               "note: scheme %s does not use the parallel engine; \
                --sim-domains %d runs it serially (unchanged results)"
               name sim_domains))
      (List.sort_uniq String.compare names)

(* --- shared observability flags --- *)

type obs_opts = {
  trace_out : string option;
  trace_capacity : int;
  metrics_out : string option;
  series_out : string option;
  series_interval : float;
}

let obs_term =
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record each run's simulator events and write them to \
                   $(docv) as dangers/trace/v1 JSONL (inspect or convert \
                   with `dangers trace`).")
  in
  let trace_capacity =
    Arg.(value & opt int 4096
         & info [ "trace-capacity" ] ~docv:"N"
             ~doc:"Trace ring capacity per run: only the newest $(docv) \
                   events are kept.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write each run's dangers/metrics/v1 snapshot (counters, \
                   latency histograms, phase profiles) to $(docv) as JSONL.")
  in
  let series_out =
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE"
             ~doc:"Sample each run's metrics registry on the simulated \
                   clock across the measured window and write the \
                   dangers/metrics-series/v1 JSONL to $(docv) (inspect \
                   with `dangers series`).")
  in
  let series_interval =
    Arg.(value & opt float 1.0
         & info [ "series-interval" ] ~docv:"SECONDS"
             ~doc:"Simulated seconds between series samples.")
  in
  let build trace_out trace_capacity metrics_out series_out series_interval =
    { trace_out; trace_capacity; metrics_out; series_out; series_interval }
  in
  Term.(const build $ trace_out $ trace_capacity $ metrics_out $ series_out
        $ series_interval)

let observing opts =
  opts.trace_out <> None || opts.metrics_out <> None || opts.series_out <> None

(* One JSONL line per observed run: the snapshot with the run's identity
   spliced in front, so a multi-run file needs no out-of-band ordering. *)
let metrics_line ~label ~seed snapshot =
  match Obs.snapshot_to_json snapshot with
  | Json.Obj fields ->
      Json.Obj (("label", Json.Str label) :: ("seed", Json.int_ seed) :: fields)
  | j -> j

let write_observations opts observations =
  (match opts.trace_out with
  | None -> ()
  | Some file ->
      let sections =
        List.filter_map (fun o -> o.Sweep.o_trace) observations
      in
      Trace_export.write file sections;
      Printf.printf "wrote %s (%d trace section(s))\n%!" file
        (List.length sections));
  (match opts.metrics_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      List.iter
        (fun o ->
          output_string oc
            (Json.to_string
               (metrics_line ~label:o.Sweep.o_label ~seed:o.Sweep.o_seed
                  o.Sweep.o_snapshot)
            ^ "\n"))
        observations;
      close_out oc;
      Printf.printf "wrote %s (%d metrics snapshot(s))\n%!" file
        (List.length observations));
  match opts.series_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      let windows = ref 0 in
      List.iter
        (fun o ->
          match o.Sweep.o_series with
          | None -> ()
          | Some series ->
              windows := !windows + Dangers_obs.Timeseries.sampled series;
              output_string oc
                (Dangers_obs.Timeseries.to_jsonl ~label:o.Sweep.o_label
                   ~seed:o.Sweep.o_seed series))
        observations;
      close_out oc;
      Printf.printf "wrote %s (%d series, %d window(s))\n%!" file
        (List.length observations) !windows

(* Run tasks with per-task observation when any sink is requested, plainly
   otherwise — the items are identical either way. *)
let run_tasks ?(sim_domains = 1) ~opts ~jobs tasks =
  let sim_domains =
    if sim_domains = 0 then Task_pool.default_jobs () else sim_domains
  in
  let sim_domains = if sim_domains > 1 then Some sim_domains else None in
  if observing opts then begin
    let observed =
      Sweep.run_observed ~jobs ?sim_domains
        ~trace:(opts.trace_out <> None)
        ~trace_capacity:opts.trace_capacity
        ?series_interval:
          (if opts.series_out <> None then Some opts.series_interval else None)
        tasks
    in
    write_observations opts (List.map snd observed);
    List.map fst observed
  end
  else Sweep.run ~jobs ?sim_domains tasks

(* Scheme-specific post-run facts, one line, stable order. *)
let pp_diagnostics ppf outcome =
  match outcome.Scheme.diagnostics with
  | [] -> ()
  | diags ->
      Format.fprintf ppf "diagnostics:";
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%g" k v) diags;
      Format.fprintf ppf "@."

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %-55s [%s]\n" e.Experiment.id e.Experiment.title
          e.Experiment.paper_ref)
      Registry.all;
    print_newline ();
    print_endline "replication schemes (for simulate/sweep --scheme):";
    List.iter
      (fun s -> Printf.printf "%-13s %s\n" (Scheme.name s) (Scheme.doc s))
      Scheme.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the paper experiments and the scheme registry.")
    Term.(const run $ const ())

(* --- experiment --- *)

let experiment_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
         ~doc:"Experiment ids (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs, fewer seeds.")
  in
  let run ids quick seed jobs sim_domains opts =
    let selected =
      match ids with
      | [] -> Ok Registry.all
      | ids ->
          let missing = List.filter (fun id -> Registry.find id = None) ids in
          if missing <> [] then
            Error ("unknown experiment ids: " ^ String.concat ", " missing)
          else Ok (List.filter_map Registry.find ids)
    in
    match selected with
    | Error message ->
        prerr_endline message;
        prerr_endline ("known ids: " ^ String.concat " " (Registry.ids ()));
        1
    | Ok experiments ->
        Sweep.experiment_tasks ~quick experiments ~seeds:[ seed ]
        |> run_tasks ~sim_domains ~opts ~jobs:(resolve_jobs jobs)
        |> List.iter (function
             | Sweep.Experiment_item { result; _ } ->
                 Format.printf "%a@." Experiment.pp_result result
             | Sweep.Scheme_item _ -> assert false);
        0
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (analytic vs measured).")
    Term.(const run $ ids $ quick $ seed_term $ jobs_term $ sim_domains_term
          $ obs_term)

(* --- analytic --- *)

let analytic_cmd =
  let sweep =
    Arg.(value
         & opt (some (enum [ ("nodes", `Nodes); ("actions", `Actions);
                             ("headline", `Headline) ])) None
         & info [ "sweep" ]
             ~doc:"Also print an analytic sweep: nodes, actions, or headline.")
  in
  let run params sweep =
    Params.validate params;
    Format.printf "Parameters:@.%a@.@." Params.pp params;
    let table =
      Table.create ~caption:"Closed-form predictions (per second, system-wide)"
        [
          Table.column ~align:Table.Left "scheme";
          Table.column "txn size";
          Table.column "duration (s)";
          Table.column "txns/update";
          Table.column "owners";
          Table.column "waits/s";
          Table.column "deadlocks/s";
          Table.column "reconciliations/s";
        ]
    in
    List.iter
      (fun scheme ->
        let p = Model.predict scheme params in
        Table.add_row table
          [
            Model.scheme_name scheme;
            Table.cell_float ~digits:0 p.Model.transaction_size;
            Table.cell_float ~digits:3 p.Model.transaction_duration;
            Table.cell_float ~digits:0 p.Model.transactions_per_user_update;
            Table.cell_float ~digits:0 p.Model.object_owners;
            Table.cell_rate p.Model.wait_rate;
            Table.cell_rate p.Model.deadlock_rate;
            Table.cell_rate p.Model.reconciliation_rate;
          ])
      Model.all_schemes;
    Format.printf "%a@." Table.pp table;
    Format.printf
      "mobile lazy-group (eq 15-18): outbound=%.1f inbound=%.1f \
       P(collision)=%.4f rate=%s/s@."
      (Dangers_analytic.Lazy_group.outbound_updates params)
      (Dangers_analytic.Lazy_group.inbound_updates params)
      (Dangers_analytic.Lazy_group.p_collision params)
      (Table.cell_rate (Dangers_analytic.Lazy_group.mobile_reconciliation_rate params));
    (match sweep with
    | None -> ()
    | Some `Nodes ->
        Format.printf "@.%a@." Table.pp
          (Dangers_analytic.Tables.nodes_sweep params
             ~nodes:[ 1; 2; 5; 10; 20; 50; 100 ])
    | Some `Actions ->
        Format.printf "@.%a@." Table.pp
          (Dangers_analytic.Tables.actions_sweep params
             ~actions:[ 1; 2; 4; 8; 16; 40 ])
    | Some `Headline ->
        Format.printf "@.%a@." Table.pp
          (Dangers_analytic.Tables.headline_growth params));
    0
  in
  Cmd.v
    (Cmd.info "analytic"
       ~doc:"Print the model's predictions for a parameter point.")
    Term.(const run $ params_term $ sweep)

(* --- simulate --- *)

(* Scheme names come from the registry, so `--scheme` can never go stale
   against the schemes the repo actually implements; an unknown name lists
   the valid ones. *)
let scheme_conv =
  let parse name =
    match Scheme.find name with
    | Some scheme -> Ok scheme
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scheme %s (valid schemes: %s)" name
               (String.concat ", " (Scheme.names ()))))
  in
  let print ppf scheme = Format.pp_print_string ppf (Scheme.name scheme) in
  Arg.conv (parse, print)

let simulate_cmd =
  let scheme =
    Arg.(value & opt scheme_conv (Scheme.named "lazy-master")
         & info [ "scheme" ]
             ~doc:"Replication scheme to simulate (see `dangers list`).")
  in
  let span =
    Arg.(value & opt float 120. & info [ "span" ] ~doc:"Measured seconds.")
  in
  let run params scheme span seed sim_domains opts =
    note_serial_schemes ~sim_domains [ Scheme.name scheme ];
    let task =
      Sweep.Scheme_task
        {
          scheme = Scheme.name scheme;
          spec = Scheme.spec params;
          seed;
          warmup = 5.;
          span;
        }
    in
    match run_tasks ~sim_domains ~opts ~jobs:1 [ task ] with
    | [ Sweep.Scheme_item { outcome; _ } ] ->
        Format.printf "%a@." Repl_stats.pp_summary outcome.Scheme.summary;
        Format.printf "%a" pp_diagnostics outcome;
        0
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one scheme under generator load.")
    Term.(const run $ params_term $ scheme $ span $ seed_term
          $ sim_domains_term $ obs_term)

(* --- sweep --- *)

let format_conv =
  Arg.enum [ ("table", `Table); ("json", `Json); ("csv", `Csv) ]

let print_items_table items =
  List.iter
    (function
      | Sweep.Experiment_item { result; _ } ->
          Format.printf "%a@." Experiment.pp_result result
      | Sweep.Scheme_item { outcome; seed; _ } ->
          Format.printf "seed %d: %a@.%a@." seed Repl_stats.pp_summary
            outcome.Scheme.summary pp_diagnostics outcome)
    items

let sweep_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
         ~doc:"Experiment ids to sweep (default: the full registry, unless \
               $(b,--scheme) is given).")
  in
  let schemes =
    Arg.(value & opt_all string []
         & info [ "scheme" ]
             ~doc:"Sweep this replication scheme at the given parameter \
                   point instead of (or besides) experiments. Repeatable; \
                   $(b,all) selects every registered scheme.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs, fewer seeds.")
  in
  let seeds =
    Arg.(value & opt int 1
         & info [ "seeds" ]
             ~doc:"Seeds per task: SEED, SEED+101, SEED+202, ...")
  in
  let span =
    Arg.(value & opt float 120.
         & info [ "span" ] ~doc:"Measured seconds per scheme run.")
  in
  let format =
    Arg.(value & opt format_conv `Table
         & info [ "format" ] ~doc:"Output format: table, json (JSONL), csv.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the output to FILE.")
  in
  let run params ids schemes quick nseeds span format out seed jobs sim_domains
      opts =
    let scheme_names =
      if List.mem "all" schemes then Scheme.names () else schemes
    in
    let unknown_ids = List.filter (fun id -> Registry.find id = None) ids in
    let unknown_schemes =
      List.filter (fun s -> Scheme.find s = None) scheme_names
    in
    if unknown_ids <> [] then begin
      prerr_endline
        ("unknown experiment ids: " ^ String.concat ", " unknown_ids);
      prerr_endline ("known ids: " ^ String.concat " " (Registry.ids ()));
      1
    end
    else if unknown_schemes <> [] then begin
      prerr_endline
        ("unknown schemes: " ^ String.concat ", " unknown_schemes);
      prerr_endline
        ("known schemes: " ^ String.concat " " (Scheme.names ()));
      1
    end
    else begin
      Params.validate params;
      let seeds = List.init (max 1 nseeds) (fun i -> seed + (101 * i)) in
      let experiments =
        match (ids, scheme_names) with
        | [], [] -> Registry.all
        | [], _ :: _ -> []
        | ids, _ -> List.filter_map Registry.find ids
      in
      let tasks =
        Sweep.experiment_tasks ~quick experiments ~seeds
        @ Sweep.scheme_tasks ~span ~seeds ~specs:[ Scheme.spec params ]
            scheme_names
      in
      note_serial_schemes ~sim_domains scheme_names;
      let items = run_tasks ~sim_domains ~opts ~jobs:(resolve_jobs jobs) tasks in
      let emit text =
        match out with
        | None -> print_string text
        | Some file ->
            let oc = open_out file in
            output_string oc text;
            close_out oc
      in
      (match format with
      | `Table -> (
          print_items_table items;
          match out with
          | None -> ()
          | Some file ->
              emit (Export.to_jsonl (List.map Export.record_of_item items));
              Printf.printf "wrote %s (JSONL)\n" file)
      | `Json -> emit (Export.to_jsonl (List.map Export.record_of_item items))
      | `Csv -> emit (Export.to_csv (List.map Export.record_of_item items)));
      0
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run an (experiment | scheme) x seed grid on a multicore task \
             pool. Results are in task order and byte-identical at any \
             $(b,--jobs).")
    Term.(const run $ params_term $ ids $ schemes $ quick $ seeds $ span
          $ format $ out $ seed_term $ jobs_term $ sim_domains_term
          $ obs_term)

(* --- report --- *)

let report_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs, fewer seeds.")
  in
  let run quick seed =
    Format.printf
      "# Paper reproduction report@.@.Generated by `dangers report`%s with seed %d. Every table and figure of Gray et al. (SIGMOD'96), analytic prediction vs simulator measurement.@.@."
      (if quick then " (quick mode)" else "")
      seed;
    let total = ref 0 and ok = ref 0 in
    List.iter
      (fun e ->
        let result = e.Experiment.run ~quick ~seed in
        Format.printf "## %s — %s@.@.*%s*@.@." result.Experiment.id
          result.Experiment.title e.Experiment.paper_ref;
        List.iter
          (fun table -> Format.printf "%s@." (Table.to_markdown table))
          result.Experiment.tables;
        List.iter
          (fun f ->
            incr total;
            if Experiment.finding_ok f then incr ok;
            Format.printf "- %s finding: **%s** — expected %.4g, measured                            %.4g (tolerance %.2g)@."
              (if Experiment.finding_ok f then "✅" else "❌")
              f.Experiment.label f.Experiment.expected f.Experiment.actual
              f.Experiment.tolerance)
          result.Experiment.findings;
        List.iter (fun note -> Format.printf "@.> %s@." note)
          result.Experiment.notes;
        Format.printf "@.")
      Registry.all;
    Format.printf "---@.@.**Findings reproduced: %d / %d.**@." !ok !total;
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Emit the full paper-vs-measured report as markdown on stdout.")
    Term.(const run $ quick $ seed_term)

(* --- trace --- *)

let event_tag event =
  match Trace_export.event_to_json event with
  | Json.Obj (("ev", Json.Str tag) :: _) -> tag
  | _ -> assert false

let trace_cmd =
  let file =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"A dangers/trace/v1 JSONL file recorded with \
                   $(b,--trace-out). When omitted, runs a short lazy-master \
                   simulation and prints its trace.")
  in
  let span =
    Arg.(value & opt float 0.5
         & info [ "span" ] ~doc:"Live run: simulated seconds to trace.")
  in
  let last =
    Arg.(value & opt int (-1)
         & info [ "last" ] ~docv:"N"
             ~doc:"Entries to print, newest (default: 60 for a live run, \
                   all of $(i,FILE)).")
  in
  let chrome =
    Arg.(value & flag
         & info [ "chrome" ]
             ~doc:"Convert $(i,FILE) to Chrome trace-event JSON (loadable \
                   in Perfetto / chrome://tracing) on stdout, or into \
                   $(b,--out).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"OUT"
             ~doc:"With $(b,--chrome): write the converted JSON to $(docv).")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Check $(i,FILE) against the dangers/trace/v1 schema and \
                   report; exit 1 if it does not conform.")
  in
  let filter =
    Arg.(value & opt (some string) None
         & info [ "filter" ] ~docv:"SUBSTR"
             ~doc:"Only print events whose tag contains $(docv) (e.g. \
                   $(b,message), $(b,txn), $(b,deadlock)).")
  in
  let matches filter entry =
    match filter with
    | None -> true
    | Some sub ->
        let tag = event_tag entry.Trace.event in
        let n = String.length sub and m = String.length tag in
        let rec at i = i + n <= m && (String.sub tag i n = sub || at (i + 1)) in
        at 0
  in
  let print_section last filter (s : Trace_export.section) =
    Format.printf "%s seed %d: %d events recorded (%d dropped)@." s.label
      s.seed s.recorded s.dropped;
    let entries = List.filter (matches filter) s.Trace_export.entries in
    let total = List.length entries in
    let tail =
      if last >= 0 && total > last then
        List.filteri (fun i _ -> i >= total - last) entries
      else entries
    in
    if total > List.length tail then
      Format.printf "  (showing the last %d of %d)@." (List.length tail) total;
    List.iter (fun entry -> Format.printf "%a@." Trace.pp_entry entry) tail;
    Format.printf "@."
  in
  let live_run params span last seed =
    Params.validate params;
    let module Lazy_master = Dangers_replication.Lazy_master in
    let module Common = Dangers_replication.Common in
    let module Clock = Dangers_runtime.Clock in
    let sys = Lazy_master.create params ~seed in
    let clock = (Lazy_master.base sys).Common.clock in
    let tracer = Trace.create () in
    Clock.set_tracer clock (Some tracer);
    Lazy_master.start sys;
    Clock.run_for clock span;
    Lazy_master.stop_load sys;
    let last = if last < 0 then 60 else last in
    let entries = Trace.entries tracer in
    let total = List.length entries in
    let tail = if total > last then List.filteri (fun i _ -> i >= total - last) entries else entries in
    Format.printf
      "lazy-master, %gs of simulated time: %d events recorded (%d dropped),        showing the last %d@.@."
      span (Trace.recorded tracer) (Trace.dropped tracer) (List.length tail);
    List.iter (fun entry -> Format.printf "%a@." Trace.pp_entry entry) tail;
    0
  in
  let run params span last seed file chrome out validate filter =
    match file with
    | None -> live_run params span last seed
    | Some path -> (
        match
          let ic = open_in_bin path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          contents
        with
        | exception Sys_error message ->
            prerr_endline ("trace: " ^ message);
            1
        | contents ->
            if validate then (
              match Trace_export.validate contents with
              | Ok (sections, events) ->
                  Printf.printf "%s: valid %s (%d section(s), %d event(s))\n"
                    path Trace_export.schema_id sections events;
                  0
              | Error message ->
                  Printf.eprintf "%s: INVALID: %s\n" path message;
                  1)
            else (
              match Trace_export.of_jsonl contents with
              | exception Json.Parse_error message ->
                  Printf.eprintf "%s: %s\n" path message;
                  1
              | sections ->
                  if chrome then begin
                    let text = Json.to_string (Trace_export.to_chrome sections) in
                    (match out with
                    | None -> print_endline text
                    | Some target ->
                        let oc = open_out target in
                        output_string oc text;
                        output_char oc '\n';
                        close_out oc;
                        Printf.printf "wrote %s\n" target);
                    0
                  end
                  else begin
                    List.iter (print_section last filter) sections;
                    0
                  end))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Inspect a recorded trace file (pretty-print, $(b,--validate), \
             convert with $(b,--chrome) for Perfetto); with no FILE, run a \
             short traced lazy-master simulation.")
    Term.(const run $ params_term $ span $ last $ seed_term $ file $ chrome
          $ out $ validate $ filter)

(* --- fuzz --- *)

let fuzz_cmd =
  let module Fuzz = Dangers_fault.Fuzz in
  let module Fault_plan = Dangers_fault.Fault_plan in
  let module Invariants = Dangers_fault.Invariants in
  let fuzz_scheme_conv =
    Arg.enum (List.map (fun s -> (Fuzz.scheme_name s, s)) Fuzz.all_schemes)
  in
  let level_conv =
    Arg.enum
      (List.map
         (fun l -> (Fuzz.level_name l, l))
         [ Fuzz.Clean; Fuzz.Lossless; Fuzz.Chaotic ])
  in
  let replay =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:"Rerun one exact case (as printed by a failing fuzz run) \
                   instead of sweeping random cases.")
  in
  let scheme =
    Arg.(value & opt (some fuzz_scheme_conv) None
         & info [ "scheme" ]
             ~doc:"Fuzz only this scheme (default: all). Required with \
                   $(b,--replay).")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~doc:"Random cases per scheme.")
  in
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Replay: node count.")
  in
  let txns =
    Arg.(value & opt int 50 & info [ "txns" ] ~doc:"Replay: transactions.")
  in
  let level =
    Arg.(value & opt level_conv Fuzz.Chaotic
         & info [ "level" ] ~doc:"Replay: fault level (clean, lossless, \
                                  chaotic).")
  in
  let sabotage =
    Arg.(value & flag
         & info [ "sabotage" ]
             ~doc:"Replay with the scheme's deliberate bug enabled, to watch \
                   the invariant checker catch it.")
  in
  let run replay scheme count nodes txns level sabotage seed =
    if replay then begin
      match scheme with
      | None ->
          prerr_endline "fuzz --replay requires --scheme";
          1
      | Some _ when nodes < 2 ->
          prerr_endline "fuzz --replay requires --nodes >= 2";
          1
      | Some _ when txns < 0 ->
          prerr_endline "fuzz --replay requires --txns >= 0";
          1
      | Some scheme ->
          let case = { Fuzz.scheme; seed; nodes; txns; level } in
          let outcome = Fuzz.run ~sabotage case in
          Format.printf "%s@.%a@." (Fuzz.replay_command case) Fault_plan.pp
            outcome.Fuzz.plan;
          Format.printf
            "submitted %d txns, %d crash(es), %d partition(s)@."
            outcome.Fuzz.txns_submitted outcome.Fuzz.crashes_fired
            outcome.Fuzz.partitions_fired;
          (match outcome.Fuzz.violations with
          | [] ->
              Format.printf "all invariants hold@.";
              0
          | violations ->
              List.iter
                (fun v -> Format.printf "%a@." Invariants.pp_violation v)
                violations;
              1)
    end
    else begin
      let tests =
        (match scheme with
        | None -> Fuzz.tests ~count ()
        | Some s ->
            List.filteri
              (fun i _ -> List.nth Fuzz.all_schemes i = s)
              (Fuzz.tests ~count ()))
        @ Fuzz.sabotage_tests ()
      in
      QCheck_base_runner.run_tests ~colors:false ~verbose:true
        ~rand:(Random.State.make [| seed |]) tests
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the replication schemes under fault injection, checking \
             the paper's invariants; or replay one case deterministically.")
    Term.(const run $ replay $ scheme $ count $ nodes $ txns $ level
          $ sabotage $ seed_term)

(* --- scenario --- *)

let scenario_cmd =
  let scenario_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:"Scenario: checkbook, inventory, sales.")
  in
  let run name seed jobs =
    match Scenario.find name with
    | None ->
        prerr_endline
          ("unknown scenario; available: "
          ^ String.concat ", " (List.map (fun s -> s.Scenario.name) Scenario.all));
        1
    | Some scenario ->
        Format.printf "%s: %s@.%a@.@." scenario.Scenario.name
          scenario.Scenario.description Params.pp scenario.Scenario.params;
        let params = scenario.Scenario.params in
        let profile = scenario.Scenario.profile in
        let span = 120. and warmup = 5. in
        let spec = Scheme.spec ~profile params in
        let two_tier_spec =
          Scheme.spec ~profile ~initial_value:scenario.Scenario.initial_value
            params
        in
        let tasks =
          List.map
            (fun (scheme, spec) ->
              Sweep.Scheme_task { scheme; spec; seed; warmup; span })
            [
              ("eager-group", spec);
              ("lazy-group", spec);
              ("lazy-master", spec);
              ("two-tier", two_tier_spec);
            ]
        in
        Sweep.run ~jobs:(resolve_jobs jobs) tasks
        |> List.iter (function
             | Sweep.Scheme_item { scheme; outcome; _ } ->
                 Format.printf "%a@.@." Repl_stats.pp_summary
                   outcome.Scheme.summary;
                 if String.equal scheme "two-tier" then
                   Format.printf "two-tier converged: %b@."
                     (Scheme.diagnostic outcome "converged" = Some 1.)
             | Sweep.Experiment_item _ -> assert false);
        0
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a named workload scenario across schemes.")
    Term.(const run $ scenario_name $ seed_term $ jobs_term)

(* --- lint --- *)

let lint_cmd =
  let module Lint_rules = Dangers_lint.Rules in
  let module Lint_rule = Dangers_lint.Rule in
  let module Lint_engine = Dangers_lint.Engine in
  let module Lint_baseline = Dangers_lint.Baseline in
  let module Lint_report = Dangers_lint.Report in
  let prefixes =
    Arg.(value & pos_all string [ "lib/"; "bin/"; "bench/" ]
         & info [] ~docv:"PREFIX"
             ~doc:"Source path prefixes to analyze (default: lib/ bin/ \
                   bench/).")
  in
  let build_dir =
    Arg.(value & opt (some string) None
         & info [ "build-dir" ] ~docv:"DIR"
             ~doc:"Where to look for .cmt files (default: _build/default \
                   when it exists, else the current directory).")
  in
  let rules =
    Arg.(value & opt (some string) None
         & info [ "rules" ] ~docv:"IDS"
             ~doc:"Comma-separated rule ids to run (default: all). See \
                   $(b,--list).")
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"dangers/lint-baseline/v1 file of grandfathered findings; \
                   only findings beyond it fail the run.")
  in
  let update_baseline =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"Rewrite $(b,--baseline) so the current tree is clean \
                   (grandfather today's findings, expire stale entries).")
  in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~doc:"Output format: text or json \
                                   (dangers/lint/v1).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to FILE.")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list" ] ~doc:"Print the rule catalogue and exit.")
  in
  let all_files =
    Arg.(value & flag
         & info [ "all-files" ]
             ~doc:"Ignore each rule's source-path scope (lint fixtures, \
                   debugging).")
  in
  let fail_on =
    Arg.(value
         & opt (enum [ ("error", `Error); ("warning", `Warning) ]) `Warning
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:"Lowest severity that fails the run: $(b,warning) (the \
                   default) fails on any finding, $(b,error) lets \
                   warnings through.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Recompute every module summary instead of consulting \
                   the on-disk cache.")
  in
  let cache_file =
    Arg.(value & opt string Dangers_lint.Cache.default_path
         & info [ "cache-file" ] ~docv:"FILE"
             ~doc:"Summary cache keyed by per-file .cmt digest (default: \
                   _build/.dangers-lint-cache.json).")
  in
  let graph_out =
    Arg.(value & opt (some string) None
         & info [ "graph-out" ] ~docv:"FILE"
             ~doc:"Also write the resolved whole-program def/use graph \
                   (dangers/lint-graph/v1 JSON) to FILE.")
  in
  let run prefixes build_dir rules baseline update_baseline format out
      list_rules all_files fail_on no_cache cache_file graph_out =
    if list_rules then begin
      List.iter
        (fun (r : Lint_rule.t) ->
          Printf.printf "%-4s %s\n     rationale: %s\n" r.Lint_rule.id
            r.Lint_rule.title r.Lint_rule.rationale)
        Lint_rules.all;
      0
    end
    else begin
      let selected =
        match rules with
        | None -> Ok Lint_rules.all
        | Some spec ->
            let ids =
              String.split_on_char ',' spec
              |> List.map String.trim
              |> List.filter (fun id -> id <> "")
            in
            let unknown =
              List.filter (fun id -> Lint_rules.find id = None) ids
            in
            if unknown <> [] then
              Error
                (Printf.sprintf "unknown rule ids: %s (known: %s)"
                   (String.concat ", " unknown)
                   (String.concat ", " (Lint_rules.ids ())))
            else Ok (List.filter_map Lint_rules.find ids)
      in
      match selected with
      | Error message ->
          prerr_endline ("lint: " ^ message);
          2
      | Ok [] ->
          prerr_endline "lint: no rules selected";
          2
      | Ok rules -> (
          let build_dir =
            match build_dir with
            | Some dir -> dir
            | None -> Lint_engine.default_build_dir ()
          in
          match
            if update_baseline then begin
              match baseline with
              | None ->
                  prerr_endline "lint: --update-baseline requires --baseline";
                  Error 2
              | Some path ->
                  let b =
                    Lint_engine.grandfather ~all_files ~rules ~build_dir
                      ~prefixes ()
                  in
                  Lint_baseline.save path b;
                  Printf.printf "wrote %s (%d entr%s)\n" path
                    (List.length b.Lint_baseline.entries)
                    (if List.length b.Lint_baseline.entries = 1 then "y"
                     else "ies");
                  Error 0
            end
            else
              match baseline with
              | None -> Ok Lint_baseline.empty
              | Some path -> (
                  match Lint_baseline.load path with
                  | b -> Ok b
                  | exception Sys_error message ->
                      prerr_endline ("lint: " ^ message);
                      Error 2
                  | exception Json.Parse_error message ->
                      Printf.eprintf "lint: %s: %s\n" path message;
                      Error 2)
          with
          | Error code -> code
          | Ok baseline ->
              let report =
                Lint_engine.run ~all_files ~baseline ~cache_file
                  ~use_cache:(not no_cache) ?graph_out ~rules ~build_dir
                  ~prefixes ()
              in
              let text =
                match format with
                | `Text -> Format.asprintf "%a" Lint_report.pp report
                | `Json ->
                    Json.to_string (Lint_report.to_json report) ^ "\n"
              in
              (match out with
              | None -> print_string text
              | Some file ->
                  let oc = open_out file in
                  output_string oc text;
                  close_out oc;
                  Printf.printf "wrote %s\n" file);
              let fail_on =
                match fail_on with
                | `Error -> Dangers_lint.Finding.Error
                | `Warning -> Dangers_lint.Finding.Warning
              in
              Lint_report.exit_code ~fail_on report)
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static determinism & domain-safety analysis over the .cmt \
             files dune already built. Per-unit rules: banned \
             nondeterministic calls (D1), unordered hashtable iteration \
             in export paths (D2), polymorphic float comparison (D3), \
             unguarded module-level mutable state (R1), partial \
             functions (P1). \
             Whole-program rules (two-phase, call-graph-aware, \
             summary-cached): mutable state crossing a domain boundary \
             (DR1), atomic read-modify-write windows (DR2), mutex \
             discipline (DR3), module state shared between crossing \
             closures and top-level code (DR4).")
    Term.(const run $ prefixes $ build_dir $ rules $ baseline
          $ update_baseline $ format $ out $ list_rules $ all_files
          $ fail_on $ no_cache $ cache_file $ graph_out)

let bench_cmd =
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Shrink sample counts (not workloads) for a fast smoke run.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the results (default: BENCH_micro.json).")
  in
  let input =
    Arg.(value & opt (some string) None
         & info [ "input" ] ~docv:"FILE"
             ~doc:"Compare $(docv) instead of running the suite (no \
                   benchmarks execute; $(b,--out) is ignored).")
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "compare" ] ~docv:"OLD.json"
             ~doc:"Baseline results to diff against; exit status 1 if any \
                   benchmark's mean regressed past the threshold or \
                   disappeared.")
  in
  let threshold =
    Arg.(value & opt float 20.
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Regression threshold in percent.")
  in
  let run quick out input baseline threshold =
    if threshold <= 0. then begin
      prerr_endline "bench: --threshold must be positive";
      1
    end
    else begin
      let out =
        match (input, out) with
        | Some _, _ -> None
        | None, Some file -> Some file
        | None, None -> Some "BENCH_micro.json"
      in
      Dangers_microbench.Driver.main ~quick ~out ~input ~baseline
        ~threshold:(threshold /. 100.) ()
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the component micro-benchmarks (lock table, deadlock \
          detection, event engine, parallel-engine windows) and write \
          BENCH_micro.json; optionally diff against a baseline. \
          End-to-end numbers come from bench/e2e.")
    Term.(const run $ quick $ out $ input $ baseline $ threshold)

(* --- serve: the wall-clock two-tier service --- *)

let socket_term =
  Arg.(value & opt string "/tmp/dangers.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the service listens on / connects to.")

let serve_cmd =
  let scheme =
    Arg.(value & opt string "two-tier"
         & info [ "scheme" ]
             ~doc:"Scheme to serve. Only $(b,two-tier) — the paper's \
                   solution — has a live service today; the runtime \
                   abstraction is what a second one would build on.")
  in
  let base_nodes =
    Arg.(value & opt int 0
         & info [ "base-nodes" ]
             ~doc:"Base-tier size (default: half the nodes, at least 1).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Master RNG seed.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the final dangers/metrics/v1 snapshot as JSON.")
  in
  let series_out =
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE"
             ~doc:"Stream sampled metrics windows to $(docv) as \
                   dangers/metrics-series/v1 JSONL while serving.")
  in
  let sample_interval =
    Arg.(value & opt float 1.0
         & info [ "sample-interval" ] ~docv:"SECONDS"
             ~doc:"Wall seconds between metrics samples.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress per-connection stderr notes.")
  in
  let run params scheme socket base_nodes seed metrics_out series_out
      sample_interval quiet =
    if String.lowercase_ascii scheme <> "two-tier" then begin
      Printf.eprintf
        "serve: unsupported scheme %s (only two-tier has a live service)\n"
        scheme;
      1
    end
    else begin
      let base_nodes =
        if base_nodes = 0 then max 1 (params.Params.nodes / 2) else base_nodes
      in
      let config =
        {
          Dangers_live.Server.socket_path = socket;
          base_nodes;
          params;
          seed;
          metrics_out;
          series_out;
          sample_interval;
          quiet;
          print_summary = true;
        }
      in
      match Dangers_live.Server.serve config with
      | (_ : Dangers_live.Protocol.stats) -> 0
      | exception Invalid_argument message ->
          Printf.eprintf "serve: %s\n" message;
          1
      | exception Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "serve: %s %s: %s\n" fn arg (Unix.error_message err);
          1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the two-tier scheme as a wall-clock service on the live \
          runtime: clients connect over a Unix socket, are assigned \
          mobile nodes, and submit tentative transactions, sync, and \
          query through the framed protocol. Stop with a client Shutdown \
          or SIGINT; request latency is recorded in the \
          serve.request_seconds histogram, and the registry is scrapeable \
          mid-run with `dangers stat` / `dangers top`.")
    Term.(
      const run $ params_term $ scheme $ socket_term $ base_nodes $ seed
      $ metrics_out $ series_out $ sample_interval $ quiet)

let load_cmd =
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~doc:"Worker domains, one connection each.")
  in
  let txns =
    Arg.(value & opt int 10_000
         & info [ "txns" ] ~doc:"Total transactions across all workers.")
  in
  let burst =
    Arg.(value & opt int 20
         & info [ "burst" ]
             ~doc:"Tentative submits per disconnect/sync churn cycle.")
  in
  let ops =
    Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Updates per transaction.")
  in
  let db_size =
    Arg.(value & opt int Params.default.Params.db_size
         & info [ "db-size" ]
             ~doc:"Object-id range; must match the server's --db-size.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload RNG seed.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Send Shutdown to the server after the final stats fetch.")
  in
  let run socket clients txns burst ops db_size seed shutdown =
    let config =
      {
        Dangers_live.Load_gen.socket_path = socket;
        clients;
        txns;
        burst;
        ops_per_txn = ops;
        db_size;
        seed;
        shutdown;
      }
    in
    match Dangers_live.Load_gen.run config with
    | report ->
        Format.printf "%a@." Dangers_live.Load_gen.pp_report report;
        if report.Dangers_live.Load_gen.errors = [] then 0 else 1
    | exception Invalid_argument message ->
        Printf.eprintf "load: %s\n" message;
        1
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "load: %s %s: %s\n" fn arg (Unix.error_message err);
        1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Replay churning mobile users against a running `dangers serve`: \
          each client disconnects, submits a burst of tentative \
          transactions, reconnects and syncs, and queries a master value; \
          prints throughput and latency percentiles.")
    Term.(
      const run $ socket_term $ clients $ txns $ burst $ ops $ db_size $ seed
      $ shutdown)

(* --- stat / top: scraping a running server --- *)

module Monitor = Dangers_live.Monitor

let with_monitor socket f =
  match Monitor.connect ~socket with
  | monitor ->
      Fun.protect ~finally:(fun () -> Monitor.close monitor) (fun () -> f monitor)
  | exception Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "%s %s: %s (is `dangers serve` running on %s?)\n" fn arg
        (Unix.error_message err) socket;
      1

let emit ~out text =
  match out with
  | None ->
      print_string text;
      flush stdout
  | Some file ->
      let oc = open_out file in
      output_string oc text;
      close_out oc

let stat_cmd =
  let format =
    Arg.(value
         & opt (enum [ ("table", `Table); ("json", `Json); ("prom", `Prom) ])
             `Table
         & info [ "format" ]
             ~doc:"Output form: $(b,table) (the `dangers top` dashboard), \
                   $(b,json) (the dangers/metrics/v1 snapshot), or \
                   $(b,prom) (Prometheus text exposition, self-checked \
                   against the 0.0.4 format).")
  in
  let watch =
    Arg.(value & flag
         & info [ "watch" ]
             ~doc:"Keep polling every --interval seconds instead of \
                   printing one scrape.")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll period with --watch.")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"With --watch, stop after $(docv) polls (0 = forever).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the scrape to $(docv) instead of stdout.")
  in
  let run socket format watch interval count out =
    if watch && interval <= 0. then begin
      prerr_endline "stat: --interval must be positive";
      1
    end
    else
      with_monitor socket (fun monitor ->
          let scrape () =
            match format with
            | `Json -> Ok (Monitor.snapshot_json monitor)
            | `Prom -> (
                let text = Monitor.prom monitor in
                match Dangers_obs.Prometheus.lint text with
                | Ok (_ : int) -> Ok text
                | Error message ->
                    Error ("invalid Prometheus exposition: " ^ message))
            | `Table -> Ok (Monitor.render (Monitor.poll monitor))
          in
          let polls = ref 0 in
          let failed = ref None in
          let more () =
            !failed = None
            && (!polls = 0 || (watch && (count = 0 || !polls < count)))
          in
          while more () do
            if !polls > 0 then Unix.sleepf interval;
            (match scrape () with
            | Ok text -> emit ~out text
            | Error message -> failed := Some message);
            incr polls
          done;
          match !failed with
          | None -> 0
          | Some message ->
              Printf.eprintf "stat: %s\n" message;
              1)
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Scrape a running `dangers serve` over its socket: the live \
          metrics registry as a dashboard table, dangers/metrics/v1 JSON, \
          or Prometheus text exposition; --watch polls continuously.")
    Term.(const run $ socket_term $ format $ watch $ interval $ count $ out)

let top_cmd =
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"Stop after $(docv) refreshes (0 = until interrupted).")
  in
  let run socket interval count =
    if interval <= 0. then begin
      prerr_endline "top: --interval must be positive";
      1
    end
    else
      with_monitor socket (fun monitor ->
          let clear = Unix.isatty Unix.stdout in
          let polls = ref 0 in
          (try
             while count = 0 || !polls < count do
               if !polls > 0 then Unix.sleepf interval;
               let frame = Monitor.poll monitor in
               if clear then print_string "\027[H\027[2J";
               print_string (Monitor.render frame);
               flush stdout;
               incr polls
             done
           with Sys.Break -> ());
          0)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running `dangers serve`: per-second \
          commit/sync/reconciliation rates, submit-to-commit and \
          reconcile-lag percentiles, and per-mobile replication lag \
          (tentative queue depth and oldest tentative age), refreshed \
          every --interval seconds over one persistent connection.")
    Term.(const run $ socket_term $ interval $ count)

let series_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"A dangers/metrics-series/v1 JSONL file.")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Only validate (the default action is also validation; \
                   the flag makes intent explicit in scripts).")
  in
  let run file validate =
    ignore validate;
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error message ->
        Printf.eprintf "series: %s\n" message;
        1
    | contents -> (
        match Dangers_obs.Timeseries.validate contents with
        | Ok (series, windows) ->
            Printf.printf "%s: ok — %d series, %d window(s)\n" file series
              windows;
            0
        | Error message ->
            Printf.eprintf "series: %s: %s\n" file message;
            1)
  in
  Cmd.v
    (Cmd.info "series"
       ~doc:
         "Validate a dangers/metrics-series/v1 JSONL file (from `dangers \
          serve --series-out` or a simulated run's --series-out) and \
          print its series and window counts.")
    Term.(const run $ file $ validate)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "dangers" ~version:"1.0.0"
      ~doc:
        "The Dangers of Replication and a Solution (Gray et al., SIGMOD'96): \
         analytic model, replication simulators, and the two-tier scheme."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            list_cmd; experiment_cmd; sweep_cmd; analytic_cmd; simulate_cmd;
            trace_cmd; report_cmd; scenario_cmd; fuzz_cmd; bench_cmd;
            lint_cmd; serve_cmd; load_cmd; stat_cmd; top_cmd; series_cmd;
          ]))
