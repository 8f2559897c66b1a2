module Json = Dangers_obs.Json

let schema_id = "dangers/bench-micro/v1"

type t = {
  host_cores : int;
  quick : bool;
  benchmarks : Harness.stats list;
}

let to_json t =
  let stat (s : Harness.stats) =
    Json.Obj
      [
        ("name", Json.Str s.Harness.s_name);
        ("warmup", Json.int_ s.Harness.s_warmup);
        ("samples", Json.int_ s.Harness.s_samples);
        ("runs", Json.int_ s.Harness.s_runs);
        ("mean_ns", Json.of_float s.Harness.mean);
        ("stddev_ns", Json.of_float s.Harness.stddev);
        ("p50_ns", Json.of_float s.Harness.p50);
        ("p99_ns", Json.of_float s.Harness.p99);
        ("min_ns", Json.of_float s.Harness.min);
        ("max_ns", Json.of_float s.Harness.max);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("host_cores", Json.int_ t.host_cores);
      ("quick", Json.Bool t.quick);
      ("benchmarks", Json.Arr (List.map stat t.benchmarks));
    ]

let of_json json =
  let schema = Json.string_of (Json.member "schema" json) in
  if not (String.equal schema schema_id) then
    Json.parse_error "bench-micro: unsupported schema %s" schema;
  let float name j = Json.to_float (Json.member name j) in
  let stat j =
    {
      Harness.s_name = Json.string_of (Json.member "name" j);
      s_warmup = Json.int_of (Json.member "warmup" j);
      s_samples = Json.int_of (Json.member "samples" j);
      s_runs = Json.int_of (Json.member "runs" j);
      mean = float "mean_ns" j;
      stddev = float "stddev_ns" j;
      p50 = float "p50_ns" j;
      p99 = float "p99_ns" j;
      min = float "min_ns" j;
      max = float "max_ns" j;
    }
  in
  {
    host_cores = Json.int_of (Json.member "host_cores" json);
    quick =
      (match Json.member "quick" json with
      | Json.Bool b -> b
      | _ -> Json.parse_error "bench-micro: quick is not a bool");
    benchmarks = List.map stat (Json.list_of (Json.member "benchmarks" json));
  }

let save path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.trim |> Json.of_string |> of_json
