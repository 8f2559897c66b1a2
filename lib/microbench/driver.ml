module Task_pool = Dangers_runner.Task_pool

let run_suite ~quick () =
  let benchmarks =
    List.map
      (fun (c : Suite.case) ->
        let stats = Harness.run c.bench in
        Format.printf "%a@." Harness.pp_stats stats;
        stats)
      (Suite.cases ~quick)
  in
  { Bench_file.host_cores = Task_pool.host_cores (); quick; benchmarks }

let main ~quick ~out ~input ~baseline ~threshold () =
  let results =
    match input with
    | Some path -> Bench_file.load path
    | None ->
        let results = run_suite ~quick () in
        (match out with
        | Some path ->
            Bench_file.save path results;
            Format.printf "wrote %s@." path
        | None -> ());
        results
  in
  match baseline with
  | None -> 0
  | Some path ->
      let old_results = Bench_file.load path in
      let report = Compare.diff ~threshold old_results results in
      Compare.print Format.std_formatter report;
      if Compare.ok report then 0 else 1
