let default_build_dir () =
  let candidate = Filename.concat "_build" "default" in
  if Sys.file_exists candidate && Sys.is_directory candidate then candidate
  else "."

let split_rules rules =
  List.partition
    (fun (r : Rule.t) ->
      match r.Rule.check with
      | Rule.Unit_check _ -> true
      | Rule.Program_check _ -> false)
    rules

(* Run both phases over already-loaded sources. Summarization and the
   call graph are skipped when no program rule is selected; suppressions
   are always applied from the typedtrees. *)
let check_sources ?(all_files = false) ~rules sources =
  let unit_rules, program_rules = split_rules rules in
  let tables =
    List.map
      (fun (src : Loader.source) ->
        (src.Loader.path, Suppress.collect src.Loader.structure))
      sources
  in
  let allows ~file ~rule ~line =
    match List.assoc_opt file tables with
    | Some t -> Suppress.allows t ~rule ~line
    | None -> false
  in
  let keep (kept, suppressed) (f : Finding.t) =
    if allows ~file:f.Finding.file ~rule:f.Finding.rule ~line:f.Finding.line
    then (kept, suppressed + 1)
    else (f :: kept, suppressed)
  in
  let acc =
    List.fold_left
      (fun acc (src : Loader.source) ->
        List.fold_left
          (fun acc (rule : Rule.t) ->
            match rule.Rule.check with
            | Rule.Program_check _ -> acc
            | Rule.Unit_check check ->
                if all_files || rule.Rule.in_scope src.Loader.path then
                  List.fold_left keep acc
                    (check ~file:src.Loader.path src.Loader.structure)
                else acc)
          acc unit_rules)
      ([], 0) sources
  in
  let findings, suppressed =
    if program_rules = [] then acc
    else begin
      let graph = Callgraph.make (List.map Summary.of_source sources) in
      List.fold_left
        (fun acc (rule : Rule.t) ->
          match rule.Rule.check with
          | Rule.Unit_check _ -> acc
          | Rule.Program_check check ->
              List.fold_left
                (fun acc (f : Finding.t) ->
                  if all_files || rule.Rule.in_scope f.Finding.file then
                    keep acc f
                  else acc)
                acc (check graph))
        acc program_rules
    end
  in
  (List.sort Finding.compare findings, suppressed)

let run ?(all_files = false) ~rules ~build_dir ~prefixes () =
  let loaded = Loader.load ~build_dir ~prefixes in
  let findings, suppressed =
    check_sources ~all_files ~rules loaded.Loader.sources
  in
  {
    Report.rules = List.map (fun r -> r.Rule.id) rules;
    sources = List.length loaded.Loader.sources;
    findings;
    suppressed;
    unreadable = loaded.Loader.unreadable;
  }
