module Table = Dangers_util.Table
module Stats = Dangers_util.Stats

type finding = {
  label : string;
  expected : float;
  actual : float;
  tolerance : float;
}

type result = {
  id : string;
  title : string;
  tables : Table.t list;
  findings : finding list;
  notes : string list;
}

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : quick:bool -> seed:int -> Table.t list * finding list * string list;
}

let run e ~quick ~seed : result =
  let tables, findings, notes = e.run ~quick ~seed in
  { id = e.id; title = e.title; tables; findings; notes }

let finding_ok f = Float.abs (f.actual -. f.expected) <= f.tolerance

let pp_result ppf (r : result) =
  Format.fprintf ppf "=== %s: %s ===@." r.id r.title;
  List.iter (fun table -> Format.fprintf ppf "%a@." Table.pp table) r.tables;
  List.iter
    (fun f ->
      Format.fprintf ppf "finding: %s expected %.4g measured %.4g (+/- %.2g) %s@."
        f.label f.expected f.actual f.tolerance
        (if finding_ok f then "[ok]" else "[off]"))
    r.findings;
  List.iter (fun note -> Format.fprintf ppf "note: %s@." note) r.notes

let summaries scheme spec ~seeds ~warmup ~span =
  List.map (fun seed -> Scheme.run_named scheme spec ~seed ~warmup ~span) seeds

let mean f = function
  | [] -> invalid_arg "Experiment.mean: no runs"
  | runs ->
      List.fold_left (fun acc run -> acc +. f run) 0. runs
      /. float_of_int (List.length runs)

let first_point = function
  | [] -> invalid_arg "Experiment.first_point: empty sweep"
  | p :: _ -> p

let rec last_point = function
  | [] -> invalid_arg "Experiment.last_point: empty sweep"
  | [ p ] -> p
  | _ :: rest -> last_point rest

let near label ~expected ~tolerance actual = { label; expected; actual; tolerance }

let holds label b =
  near label ~expected:1. ~tolerance:0. (if b then 1. else 0.)

let ratio label ~expected ~tolerance num den =
  near label ~expected ~tolerance (if den > 0. then num /. den else Float.nan)

let exponent label ~expected ~tolerance points =
  let usable = List.filter (fun (x, y) -> x > 0. && y > 0.) points in
  near label ~expected ~tolerance
    (if List.length usable < 2 then Float.nan else Stats.loglog_slope usable)
