module Experiment = Dangers_experiments.Experiment
module Repl_stats = Dangers_replication.Repl_stats

module Json = Dangers_obs.Json

(* --- export records --- *)

type record =
  | Experiment_record of {
      id : string;
      title : string;
      seed : int;
      findings : Experiment.finding list;
      notes : string list;
    }
  | Scheme_record of {
      scheme : string;
      seed : int;
      summary : Repl_stats.summary;
      diagnostics : (string * float) list;
    }

let record_of_item = function
  | Sweep.Experiment_item { seed; result } ->
      Experiment_record
        {
          id = result.Experiment.id;
          title = result.Experiment.title;
          seed;
          findings = result.Experiment.findings;
          notes = result.Experiment.notes;
        }
  | Sweep.Scheme_item { scheme; seed; outcome } ->
      Scheme_record
        {
          scheme;
          seed;
          summary = outcome.Dangers_experiments.Scheme.summary;
          diagnostics = outcome.Dangers_experiments.Scheme.diagnostics;
        }

let finding_to_json (f : Experiment.finding) =
  Json.Obj
    [
      ("label", Json.Str f.Experiment.label);
      ("expected", Json.of_float f.Experiment.expected);
      ("actual", Json.of_float f.Experiment.actual);
      ("tolerance", Json.of_float f.Experiment.tolerance);
      ("ok", Json.Bool (Experiment.finding_ok f));
    ]

let summary_to_json (s : Repl_stats.summary) =
  Json.Obj
    [
      ("scheme", Json.Str s.Repl_stats.scheme);
      ("window", Json.of_float s.Repl_stats.window);
      ("commits", Json.int_ s.Repl_stats.commits);
      ("waits", Json.int_ s.Repl_stats.waits);
      ("deadlocks", Json.int_ s.Repl_stats.deadlocks);
      ("restarts", Json.int_ s.Repl_stats.restarts);
      ("reconciliations", Json.int_ s.Repl_stats.reconciliations);
      ("commit_rate", Json.of_float s.Repl_stats.commit_rate);
      ("wait_rate", Json.of_float s.Repl_stats.wait_rate);
      ("deadlock_rate", Json.of_float s.Repl_stats.deadlock_rate);
      ("reconciliation_rate", Json.of_float s.Repl_stats.reconciliation_rate);
      ("mean_duration", Json.of_float s.Repl_stats.mean_duration);
    ]

let to_json = function
  | Experiment_record { id; title; seed; findings; notes } ->
      Json.Obj
        [
          ("kind", Json.Str "experiment");
          ("id", Json.Str id);
          ("title", Json.Str title);
          ("seed", Json.int_ seed);
          ("findings", Json.Arr (List.map finding_to_json findings));
          ("notes", Json.Arr (List.map (fun n -> Json.Str n) notes));
        ]
  | Scheme_record { scheme; seed; summary; diagnostics } ->
      Json.Obj
        [
          ("kind", Json.Str "scheme-run");
          ("scheme", Json.Str scheme);
          ("seed", Json.int_ seed);
          ("summary", summary_to_json summary);
          ( "diagnostics",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.of_float v)) diagnostics) );
        ]

let finding_of_json j =
  {
    Experiment.label = Json.string_of (Json.member "label" j);
    expected = Json.to_float (Json.member "expected" j);
    actual = Json.to_float (Json.member "actual" j);
    tolerance = Json.to_float (Json.member "tolerance" j);
  }

let summary_of_json j =
  {
    Repl_stats.scheme = Json.string_of (Json.member "scheme" j);
    window = Json.to_float (Json.member "window" j);
    commits = Json.int_of (Json.member "commits" j);
    waits = Json.int_of (Json.member "waits" j);
    deadlocks = Json.int_of (Json.member "deadlocks" j);
    restarts = Json.int_of (Json.member "restarts" j);
    reconciliations = Json.int_of (Json.member "reconciliations" j);
    commit_rate = Json.to_float (Json.member "commit_rate" j);
    wait_rate = Json.to_float (Json.member "wait_rate" j);
    deadlock_rate = Json.to_float (Json.member "deadlock_rate" j);
    reconciliation_rate = Json.to_float (Json.member "reconciliation_rate" j);
    mean_duration = Json.to_float (Json.member "mean_duration" j);
  }

let of_json j =
  match Json.string_of (Json.member "kind" j) with
  | "experiment" ->
      Experiment_record
        {
          id = Json.string_of (Json.member "id" j);
          title = Json.string_of (Json.member "title" j);
          seed = Json.int_of (Json.member "seed" j);
          findings =
            List.map finding_of_json (Json.list_of (Json.member "findings" j));
          notes = List.map Json.string_of (Json.list_of (Json.member "notes" j));
        }
  | "scheme-run" ->
      Scheme_record
        {
          scheme = Json.string_of (Json.member "scheme" j);
          seed = Json.int_of (Json.member "seed" j);
          summary = summary_of_json (Json.member "summary" j);
          diagnostics =
            (match Json.member "diagnostics" j with
            | Json.Obj fields ->
                List.map (fun (k, v) -> (k, Json.to_float v)) fields
            | j ->
                Json.parse_error "expected an object, got %s" (Json.to_string j));
        }
  | kind -> Json.parse_error "unknown record kind %S" kind

let to_jsonl records =
  String.concat ""
    (List.map (fun r -> Json.to_string (to_json r) ^ "\n") records)

let of_jsonl input =
  String.split_on_char '\n' input
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line -> of_json (Json.of_string line))

(* --- CSV --- *)

let csv_cell s =
  if String.exists (function ',' | '"' | '\n' -> true | _ -> false) s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_header =
  [
    "kind"; "id"; "seed"; "label"; "expected"; "actual"; "tolerance"; "ok";
    "scheme"; "window"; "commits"; "commit_rate"; "waits"; "wait_rate";
    "deadlocks"; "deadlock_rate"; "restarts"; "reconciliations";
    "reconciliation_rate"; "mean_duration"; "diagnostics";
  ]

let to_csv records =
  let buf = Buffer.create 1024 in
  let row cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  row csv_header;
  let blank n = List.init n (fun _ -> "") in
  List.iter
    (function
      | Experiment_record { id; seed; findings; _ } ->
          List.iter
            (fun (f : Experiment.finding) ->
              row
                ([
                   "finding"; id; string_of_int seed; f.Experiment.label;
                   Json.float_repr f.Experiment.expected;
                   Json.float_repr f.Experiment.actual;
                   Json.float_repr f.Experiment.tolerance;
                   (if Experiment.finding_ok f then "true" else "false");
                 ]
                @ blank 13))
            findings
      | Scheme_record { scheme; seed; summary = s; diagnostics } ->
          row
            ([ "summary"; ""; string_of_int seed ]
            @ blank 5
            @ [
                scheme;
                Json.float_repr s.Repl_stats.window;
                string_of_int s.Repl_stats.commits;
                Json.float_repr s.Repl_stats.commit_rate;
                string_of_int s.Repl_stats.waits;
                Json.float_repr s.Repl_stats.wait_rate;
                string_of_int s.Repl_stats.deadlocks;
                Json.float_repr s.Repl_stats.deadlock_rate;
                string_of_int s.Repl_stats.restarts;
                string_of_int s.Repl_stats.reconciliations;
                Json.float_repr s.Repl_stats.reconciliation_rate;
                Json.float_repr s.Repl_stats.mean_duration;
                String.concat ";"
                  (List.map
                     (fun (k, v) -> k ^ "=" ^ Json.float_repr v)
                     diagnostics);
              ]))
    records;
  Buffer.contents buf
