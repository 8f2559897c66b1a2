module Json = Dangers_obs.Json

type t = {
  setup_s : float;
  run_s : float;
  rss_mb : float;
  attempted : int;
  failures : string list;
  digest : string;
  values : (string * float) list;
  notes : string list;
}

let to_json r =
  Json.Obj
    [
      ("setup_s", Json.of_float r.setup_s);
      ("run_s", Json.of_float r.run_s);
      ("rss_mb", Json.of_float r.rss_mb);
      ("attempted", Json.int_ r.attempted);
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
      ("digest", Json.Str r.digest);
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.of_float v)) r.values));
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) r.notes));
    ]

let of_json json =
  let num key = Json.to_float (Json.member key json) in
  let strings key = List.map Json.string_of (Json.list_of (Json.member key json)) in
  {
    setup_s = num "setup_s";
    run_s = num "run_s";
    rss_mb = num "rss_mb";
    attempted = Json.int_of (Json.member "attempted" json);
    failures = strings "failures";
    digest = Json.string_of (Json.member "digest" json);
    values =
      (match Json.member "values" json with
      | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.to_float v)) fields
      | _ -> Json.parse_error "values must be an object");
    notes = strings "notes";
  }

let digest s = Digest.to_hex (Digest.string s)
