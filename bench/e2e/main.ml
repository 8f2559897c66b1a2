(* The end-to-end benchmark.

     dune exec --root . -- ./bench/e2e/main.exe \
       --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

   runs one workload of BENCHMARK.json (read from the working directory)
   for S seconds, prints every metric with its unit, and ends with one
   JSON line: correct, attempted, failed and the metrics. --trace 0 gives
   the end-to-end metrics, --trace 1 the per-layer ones. --out appends the
   run, with every repetition's raw numbers, to FILE as a JSON line. The
   exit code is 1 when any check failed.

     main.exe --compare BASE.jsonl CAND.jsonl

   sets each end-to-end metric of CAND against BASE and exits 1 when one
   got worse by more than its bound. *)

open Dangers_bench_e2e

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
    \       main.exe --compare BASE.jsonl CAND.jsonl";
  exit 2

let rec flags = function
  | [] -> []
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      (String.sub key 2 (String.length key - 2), value) :: flags rest
  | _ -> usage ()

let () =
  Workload.child_main ();
  let spec = Spec.load "BENCHMARK.json" in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; base; cand ] ->
      let lines, regressed = Measure.compare ~spec ~base ~cand in
      List.iter print_endline lines;
      exit (if regressed then 1 else 0)
  | args ->
      let flags = flags args in
      let get key = match List.assoc_opt key flags with Some v -> v | None -> usage () in
      let workload =
        match Workload.find (get "workload") with
        | Some w when List.mem w.Workload.name spec.Spec.workloads -> w
        | _ ->
            prerr_endline ("unknown workload " ^ get "workload");
            usage ()
      in
      let run =
        Measure.run ~spec workload ~seed:(int_of_string (get "seed"))
          ~seconds:(float_of_string (get "seconds"))
          ~trace:(String.equal (get "trace") "1")
      in
      Measure.print run;
      Option.iter
        (fun file ->
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 file
            (fun oc ->
              output_string oc (Dangers_obs.Json.to_string (Measure.record_json run));
              output_char oc '\n'))
        (List.assoc_opt "out" flags);
      exit (if Measure.correct run then 0 else 1)
