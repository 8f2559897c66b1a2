(* The `dangers` command-line interface. Every simulation it starts goes
   through `Sweep.run` / `Sweep.run_observed`, so each output is
   byte-identical at any `--jobs`.

   Subcommands:
     list                      enumerate experiments and schemes
     experiment [IDS..]        regenerate paper tables/figures (`--format
                               markdown` for the full report)
     sweep [IDS..]             run an (experiment | scheme) x seed grid on a
                               Domain pool and export the results
                               (`--scenario NAME` for a named workload)
     analytic                  print the closed-form predictions for a
                               parameter point (all schemes)
     simulate                  run one replication scheme under load and
                               print its measured summary
     trace FILE                inspect or convert a recorded trace
     validate FILE..           schema-check recorded trace, metrics and
                               series files
     fuzz                      fault-injection sweep or one-case replay
     lint                      static determinism / domain-safety analysis
     bench                     component micro-benchmarks
     serve / load              the live two-tier service and its load
                               generator
     stat                      scrape a running service (`--watch` for a
                               live dashboard) *)

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
module Timeseries = Dangers_obs.Timeseries

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
                   dangers/metrics-series/v1 JSONL to $(docv) (check \
                   with `dangers validate`).")
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
              windows := !windows + Timeseries.sampled series;
              output_string oc
                (Timeseries.to_jsonl ~label:o.Sweep.o_label
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

(* Print [text] on stdout, or write it to [out]. *)
let emit ~out text =
  match out with
  | None ->
      print_string text;
      flush stdout
  | Some file ->
      let oc = open_out file in
      output_string oc text;
      close_out oc

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

(* The registry entries named by [ids], in the order given; [None] after
   reporting any unknown id, with the known ones, on stderr. *)
let find_experiments ids =
  match List.filter (fun id -> Registry.find id = None) ids with
  | [] -> Some (List.filter_map Registry.find ids)
  | missing ->
      prerr_endline ("unknown experiment ids: " ^ String.concat ", " missing);
      prerr_endline ("known ids: " ^ String.concat " " (Registry.ids ()));
      None

(* The paper-vs-measured report: one markdown section per experiment, then
   the reproduced-findings count. *)
let print_markdown ~quick ~seed runs =
  Format.printf
    "# Paper reproduction report@.@.Generated by `dangers experiment \
     --format markdown`%s with seed %d. Every table and figure of Gray et \
     al. (SIGMOD'96), analytic prediction vs simulator measurement.@.@."
    (if quick then " (quick mode)" else "")
    seed;
  let total = ref 0 and ok = ref 0 in
  List.iter
    (fun ((e : Experiment.t), (result : Experiment.result)) ->
      Format.printf "## %s — %s@.@.*%s*@.@." result.id result.title
        e.paper_ref;
      List.iter
        (fun table -> Format.printf "%s@." (Table.to_markdown table))
        result.tables;
      List.iter
        (fun f ->
          incr total;
          if Experiment.finding_ok f then incr ok;
          Format.printf
            "- %s finding: **%s** — expected %.4g, measured %.4g (tolerance \
             %.2g)@."
            (if Experiment.finding_ok f then "✅" else "❌")
            f.Experiment.label f.Experiment.expected f.Experiment.actual
            f.Experiment.tolerance)
        result.findings;
      List.iter (fun note -> Format.printf "@.> %s@." note) result.notes;
      Format.printf "@.")
    runs;
  Format.printf "---@.@.**Findings reproduced: %d / %d.**@." !ok !total

let experiment_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
         ~doc:"Experiment ids (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shorter runs, fewer seeds.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("table", `Table); ("markdown", `Markdown) ]) `Table
         & info [ "format" ]
             ~doc:"Output format: $(b,table) (plain-text tables) or \
                   $(b,markdown) (the full paper-vs-measured report, with \
                   a reproduced-findings count).")
  in
  let run ids quick format seed jobs sim_domains opts =
    match find_experiments ids with
    | None -> 1
    | Some selected ->
        let experiments =
          match selected with [] -> Registry.all | selected -> selected
        in
        let results =
          Sweep.experiment_tasks ~quick experiments ~seeds:[ seed ]
          |> run_tasks ~sim_domains ~opts ~jobs:(resolve_jobs jobs)
          |> List.map (function
               | Sweep.Experiment_item { result; _ } -> result
               | Sweep.Scheme_item _ -> assert false)
        in
        (match format with
        | `Table ->
            List.iter (Format.printf "%a@." Experiment.pp_result) results
        | `Markdown ->
            print_markdown ~quick ~seed (List.combine experiments results));
        0
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (analytic vs measured).")
    Term.(const run $ ids $ quick $ format $ seed_term $ jobs_term
          $ sim_domains_term $ obs_term)

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
               $(b,--scheme) or $(b,--scenario) is given).")
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
  let scenario =
    Arg.(value
         & opt (some (enum (List.map (fun s -> (s.Scenario.name, s))
                              Scenario.all))) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Run a named workload scenario: its parameter point, \
                   transaction profile and initial object value replace \
                   the parameter flags, and every registered scheme runs \
                   unless $(b,--scheme) narrows the set.")
  in
  let format =
    Arg.(value & opt format_conv `Table
         & info [ "format" ] ~doc:"Output format: table, json (JSONL), csv.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the output to FILE.")
  in
  let run params ids schemes scenario quick nseeds span format out seed jobs
      sim_domains opts =
    let scheme_names =
      match (schemes, scenario) with
      | [], Some _ -> Scheme.names ()
      | schemes, _ when List.mem "all" schemes -> Scheme.names ()
      | schemes, _ -> schemes
    in
    let unknown_schemes =
      List.filter (fun s -> Scheme.find s = None) scheme_names
    in
    match find_experiments ids with
    | None -> 1
    | Some _ when unknown_schemes <> [] ->
        prerr_endline
          ("unknown schemes: " ^ String.concat ", " unknown_schemes);
        prerr_endline
          ("known schemes: " ^ String.concat " " (Scheme.names ()));
        1
    | Some selected ->
        let params, spec =
          match scenario with
          | None -> (params, Scheme.spec params)
          | Some s ->
              ( s.Scenario.params,
                Scheme.spec ~profile:s.Scenario.profile
                  ~initial_value:s.Scenario.initial_value s.Scenario.params )
        in
        Params.validate params;
        let seeds = List.init (max 1 nseeds) (fun i -> seed + (101 * i)) in
        let experiments =
          match (selected, scheme_names) with
          | [], [] -> Registry.all
          | selected, _ -> selected
        in
        let tasks =
          Sweep.experiment_tasks ~quick experiments ~seeds
          @ Sweep.scheme_tasks ~span ~seeds ~specs:[ spec ] scheme_names
        in
        note_serial_schemes ~sim_domains scheme_names;
        let items =
          run_tasks ~sim_domains ~opts ~jobs:(resolve_jobs jobs) tasks
        in
        let records = List.map Export.record_of_item items in
        (match format with
        | `Table ->
            Option.iter
              (fun s ->
                Format.printf "%s: %s@.%a@.@." s.Scenario.name
                  s.Scenario.description Params.pp params)
              scenario;
            print_items_table items;
            Option.iter
              (fun file ->
                emit ~out (Export.to_jsonl records);
                Printf.printf "wrote %s (JSONL)\n" file)
              out
        | `Json -> emit ~out (Export.to_jsonl records)
        | `Csv -> emit ~out (Export.to_csv records));
        0
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run an (experiment | scheme) x seed grid on a multicore task \
             pool. Results are in task order and byte-identical at any \
             $(b,--jobs).")
    Term.(const run $ params_term $ ids $ schemes $ scenario $ quick $ seeds
          $ span $ format $ out $ seed_term $ jobs_term $ sim_domains_term
          $ obs_term)

(* --- trace --- *)

let event_tag event =
  match Trace_export.event_to_json event with
  | Json.Obj (("ev", Json.Str tag) :: _) -> tag
  | _ -> assert false

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"A dangers/trace/v1 JSONL file recorded with \
                   $(b,--trace-out).")
  in
  let last =
    Arg.(value & opt (some int) None
         & info [ "last" ] ~docv:"N"
             ~doc:"Print only the newest $(docv) entries of each section \
                   (default: all).")
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
      match last with
      | Some last when total > last ->
          List.filteri (fun i _ -> i >= total - last) entries
      | _ -> entries
    in
    if total > List.length tail then
      Format.printf "  (showing the last %d of %d)@." (List.length tail) total;
    List.iter (fun entry -> Format.printf "%a@." Trace.pp_entry entry) tail;
    Format.printf "@."
  in
  let run file last chrome out filter =
    match Trace_export.load file with
    | exception Sys_error message ->
        prerr_endline ("trace: " ^ message);
        1
    | exception Json.Parse_error message ->
        Printf.eprintf "%s: %s\n" file message;
        1
    | sections ->
        if chrome then begin
          emit ~out (Json.to_string (Trace_export.to_chrome sections) ^ "\n");
          Option.iter (Printf.printf "wrote %s\n") out
        end
        else List.iter (print_section last filter) sections;
        0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Inspect a recorded trace file (pretty-print, or convert with \
             $(b,--chrome) for Perfetto). Record one with \
             $(b,simulate --trace-out FILE); check it with $(b,validate).")
    Term.(const run $ file $ last $ chrome $ out $ filter)

(* --- validate --- *)

(* Check a recorded file against the schema its first line names; [Ok]
   carries the summary line. *)
let validate_contents contents =
  let lines =
    String.split_on_char '\n' contents
    |> List.filter (fun line -> String.trim line <> "")
  in
  match lines with
  | [] -> Error "empty file"
  | first :: _ -> (
      match Json.member "schema" (Json.of_string first) with
      | exception Json.Parse_error message -> Error ("line 1: " ^ message)
      | Json.Str schema when String.equal schema Trace_export.schema_id ->
          Trace_export.validate contents
          |> Result.map (fun (sections, events) ->
                 Printf.sprintf "valid %s (%d section(s), %d event(s))" schema
                   sections events)
      | Json.Str schema when String.equal schema Timeseries.schema_id ->
          Timeseries.validate contents
          |> Result.map (fun (series, windows) ->
                 Printf.sprintf "valid %s (%d series, %d window(s))" schema
                   series windows)
      | Json.Str schema when String.equal schema Obs.schema_id -> (
          match
            List.iteri
              (fun i line ->
                try ignore (Obs.snapshot_of_json (Json.of_string line))
                with Json.Parse_error message ->
                  Json.parse_error "line %d: %s" (i + 1) message)
              lines
          with
          | () ->
              Ok
                (Printf.sprintf "valid %s (%d snapshot(s))" schema
                   (List.length lines))
          | exception Json.Parse_error message -> Error message)
      | Json.Str schema -> Error (Printf.sprintf "unknown schema %S" schema)
      | _ -> Error "line 1: schema is not a string")

let validate_cmd =
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
         ~doc:"A recorded dangers/trace/v1, dangers/metrics/v1 or \
               dangers/metrics-series/v1 file.")
  in
  let run files =
    List.fold_left
      (fun status file ->
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error message ->
            prerr_endline ("validate: " ^ message);
            1
        | contents -> (
            match validate_contents contents with
            | Ok summary ->
                Printf.printf "%s: %s\n" file summary;
                status
            | Error message ->
                Printf.eprintf "%s: INVALID: %s\n" file message;
                1))
      0 files
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Schema-check recorded files: each is read as the schema its \
             first line names (a trace from $(b,--trace-out), metrics \
             snapshots from $(b,--metrics-out), or a series from \
             $(b,--series-out)). Exits 1 if any file is unreadable, \
             malformed or of an unknown schema.")
    Term.(const run $ files)

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

(* --- lint --- *)

let lint_cmd =
  let module Lint_rules = Dangers_lint.Rules in
  let module Lint_rule = Dangers_lint.Rule in
  let module Lint_engine = Dangers_lint.Engine in
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
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ]
             ~doc:(Printf.sprintf "Output format: text or json (%s)."
                     Lint_report.schema_id))
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
  let run prefixes build_dir rules format out list_rules all_files fail_on =
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
      | Ok rules ->
          let build_dir =
            match build_dir with
            | Some dir -> dir
            | None -> Lint_engine.default_build_dir ()
          in
          let report =
            Lint_engine.run ~all_files ~rules ~build_dir ~prefixes ()
          in
          let text =
            match format with
            | `Text -> Format.asprintf "%a" Lint_report.pp report
            | `Json ->
                Json.to_string (Lint_report.to_json report) ^ "\n"
          in
          emit ~out text;
          Option.iter (Printf.printf "wrote %s\n") out;
          let fail_on =
            match fail_on with
            | `Error -> Dangers_lint.Finding.Error
            | `Warning -> Dangers_lint.Finding.Warning
          in
          Lint_report.exit_code ~fail_on report
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
             Whole-program rules (two-phase, call-graph-aware): \
             mutable state crossing a domain boundary (DR1), atomic \
             read-modify-write windows (DR2), mutex discipline (DR3), \
             module state shared between crossing closures and \
             top-level code (DR4).")
    Term.(const run $ prefixes $ build_dir $ rules $ format $ out
          $ list_rules $ all_files $ fail_on)

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
          detection, transaction path, replica stores, event engine, \
          parallel-engine windows) and write \
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
          mid-run with `dangers stat`.")
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

(* --- stat: scraping a running server --- *)

module Monitor = Dangers_live.Monitor

let with_monitor socket f =
  match Monitor.connect ~socket with
  | monitor ->
      Fun.protect ~finally:(fun () -> Monitor.close monitor) (fun () -> f monitor)
  | exception Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "%s %s: %s (is `dangers serve` running on %s?)\n" fn arg
        (Unix.error_message err) socket;
      1

let stat_cmd =
  let format =
    Arg.(value
         & opt (enum [ ("table", `Table); ("json", `Json); ("prom", `Prom) ])
             `Table
         & info [ "format" ]
             ~doc:"Output form: $(b,table) (the live dashboard), \
                   $(b,json) (the dangers/metrics/v1 snapshot), or \
                   $(b,prom) (Prometheus text exposition, self-checked \
                   against the 0.0.4 format).")
  in
  let watch =
    Arg.(value & flag
         & info [ "watch" ]
             ~doc:"Keep polling every --interval seconds instead of \
                   printing one scrape. A table on a terminal is redrawn \
                   in place.")
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
          let clear =
            watch && format = `Table && out = None && Unix.isatty Unix.stdout
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
            | Ok text ->
                if clear then print_string "\027[H\027[2J";
                emit ~out text
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
          or Prometheus text exposition. With --watch it polls over one \
          persistent connection; the table then shows per-second \
          commit/sync/reconciliation rates, submit-to-commit and \
          reconcile-lag percentiles, and per-mobile replication lag \
          (tentative queue depth and oldest tentative age).")
    Term.(const run $ socket_term $ format $ watch $ interval $ count $ out)

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
            trace_cmd; validate_cmd; fuzz_cmd; bench_cmd; lint_cmd; serve_cmd;
            load_cmd; stat_cmd;
          ]))
