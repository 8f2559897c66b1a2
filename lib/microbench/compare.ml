type change = {
  name : string;
  old_mean : float;
  new_mean : float;
  ratio : float;
  words : (float * float) option;
}

type report = {
  threshold : float;
  regressions : change list;
  improvements : change list;
  stable : change list;
  only_old : string list;
  only_new : string list;
}

let change (old_s : Harness.stats) (new_s : Harness.stats) =
  {
    name = new_s.Harness.s_name;
    old_mean = old_s.Harness.mean;
    new_mean = new_s.Harness.mean;
    ratio = new_s.Harness.mean /. old_s.Harness.mean;
    words =
      (match (old_s.Harness.words, new_s.Harness.words) with
      | Some o, Some n -> Some (o, n)
      | None, _ | _, None -> None);
  }

let diff ~threshold (old_file : Bench_file.t) (new_file : Bench_file.t) =
  if threshold <= 0. then invalid_arg "Compare.diff: threshold must be positive";
  let by_name (s : Harness.stats) = (s.Harness.s_name, s) in
  let old_stats = List.map by_name old_file.Bench_file.benchmarks in
  let new_stats = List.map by_name new_file.Bench_file.benchmarks in
  let regressions = ref [] and improvements = ref [] and stable = ref [] in
  let only_new = ref [] in
  List.iter
    (fun (name, new_s) ->
      match List.assoc_opt name old_stats with
      | None -> only_new := name :: !only_new
      | Some old_s ->
          let c = change old_s new_s in
          if c.ratio > 1. +. threshold then regressions := c :: !regressions
          else if c.ratio < 1. -. threshold then improvements := c :: !improvements
          else stable := c :: !stable)
    new_stats;
  let only_old =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name new_stats then None else Some name)
      old_stats
  in
  (match only_old with
  | [] -> ()
  | names ->
      (* Tolerated, not fatal: a trimmed quick run or a renamed benchmark
         should not fail the gate, but losing coverage must stay visible. *)
      Dangers_obs.Warnings.warn ~key:"bench.compare.missing"
        (Printf.sprintf
           "%d baseline benchmark(s) not in this run: %s"
           (List.length names)
           (String.concat ", " names)));
  {
    threshold;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    stable = List.rev !stable;
    only_old;
    only_new = List.rev !only_new;
  }

let ok report = report.regressions = []

let print ppf report =
  let pct ratio = (ratio -. 1.) *. 100. in
  let line verdict c =
    Format.fprintf ppf "%-12s %-28s %+7.1f%%  (%.0fns -> %.0fns)" verdict
      c.name (pct c.ratio) c.old_mean c.new_mean;
    (* Reported, never judged: the verdict is the time's alone. *)
    Option.iter
      (fun (o, n) -> Format.fprintf ppf "  words %.0f -> %.0f (%+.0f)" o n (n -. o))
      c.words;
    Format.fprintf ppf "@."
  in
  List.iter (line "REGRESSION") report.regressions;
  List.iter (line "improvement") report.improvements;
  List.iter (line "ok") report.stable;
  List.iter
    (Format.fprintf ppf "missing      %-28s (in baseline, not re-run)@.")
    report.only_old;
  List.iter (Format.fprintf ppf "new          %-28s (no baseline)@.")
    report.only_new;
  if ok report then
    Format.fprintf ppf "compare: ok (threshold %.0f%%%s)@."
      (report.threshold *. 100.)
      (match report.only_old with
      | [] -> ""
      | names ->
          Printf.sprintf ", %d baseline bench(es) not re-run"
            (List.length names))
  else
    Format.fprintf ppf
      "compare: FAILED — %d regression(s) (threshold %.0f%%)@."
      (List.length report.regressions)
      (report.threshold *. 100.)
