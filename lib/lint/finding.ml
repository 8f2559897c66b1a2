module Json = Dangers_obs.Json

type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let make ?(severity = Error) ~rule ~file ~loc ~message () =
  let p = loc.Location.loc_start in
  {
    rule;
    severity;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message;
  }

let at ?(severity = Error) ~rule ~file ~line ~col ~message () =
  { rule; severity; file; line; col; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s" f.file f.line f.col
    (severity_to_string f.severity)
    f.rule f.message

let to_json f =
  Json.Obj
    [
      ("rule", Json.Str f.rule);
      ("severity", Json.Str (severity_to_string f.severity));
      ("file", Json.Str f.file);
      ("line", Json.int_ f.line);
      ("col", Json.int_ f.col);
      ("message", Json.Str f.message);
    ]
