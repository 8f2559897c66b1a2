module Json = Dangers_obs.Json

type t = {
  rules : string list;
  sources : int;
  findings : Finding.t list;
  suppressed : int;
  unreadable : string list;
}

let schema_id = "dangers/lint/v3"

let errors t =
  List.length
    (List.filter
       (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
       t.findings)

let warnings t = List.length t.findings - errors t

let clean t = t.findings = [] && t.unreadable = []

(* [fail_on] is the lowest severity that fails the run: [Warning] (the
   default) fails on any finding, [Error] lets warnings through — the CI
   gate for rules that advise rather than forbid. Unreadable cmts always
   fail: a file the linter cannot see is not a clean file. *)
let exit_code ?(fail_on = Finding.Warning) t =
  let failing =
    match fail_on with
    | Finding.Warning -> List.length t.findings
    | Finding.Error -> errors t
  in
  if failing = 0 && t.unreadable = [] then 0 else 1

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("rules", Json.Arr (List.map (fun id -> Json.Str id) t.rules));
      ("sources", Json.int_ t.sources);
      ("findings", Json.Arr (List.map Finding.to_json t.findings));
      ("errors", Json.int_ (errors t));
      ("warnings", Json.int_ (warnings t));
      ("suppressed", Json.int_ t.suppressed);
      ("unreadable", Json.Arr (List.map (fun p -> Json.Str p) t.unreadable));
      ("clean", Json.Bool (clean t));
    ]

let pp ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) t.findings;
  List.iter
    (fun path -> Format.fprintf ppf "unreadable cmt: %s@." path)
    t.unreadable;
  Format.fprintf ppf
    "lint: %d finding(s) (%d error(s), %d warning(s)), %d suppressed over %d \
     source(s) [%s]@."
    (List.length t.findings) (errors t) (warnings t) t.suppressed t.sources
    (String.concat " " t.rules)
