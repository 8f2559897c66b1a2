module Json = Dangers_obs.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let metric_of_json json =
  let better =
    match Json.string_of (Json.member "better" json) with
    | "lower" -> Lower
    | "higher" -> Higher
    | other -> Json.parse_error "better must be lower or higher, not %S" other
  in
  {
    name = Json.string_of (Json.member "name" json);
    unit_ = Json.string_of (Json.member "unit" json);
    better;
    bound = Option.map Json.to_float (Json.member_opt "bound" json);
  }

let of_json json =
  let metrics key = List.map metric_of_json (Json.list_of (Json.member key json)) in
  {
    workloads =
      List.map
        (fun w -> Json.string_of (Json.member "name" w))
        (Json.list_of (Json.member "workloads" json));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let load path =
  of_json (Json.of_string (In_channel.with_open_bin path In_channel.input_all))

let worsening better ~base ~cand =
  if Float.equal base 0. then 0.
  else
    match better with
    | Lower -> (cand -. base) /. Float.abs base
    | Higher -> (base -. cand) /. Float.abs base

let regressed metric ~base ~cand =
  match metric.bound with
  | None -> false
  | Some bound -> worsening metric.better ~base ~cand > bound
