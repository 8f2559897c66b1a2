module Json = Dangers_obs.Json
module Obs = Dangers_obs.Metrics

type kind = Paper of Paper.config | Sim of Sim.config | Live of Live.config
type t = { name : string; kind : kind }

(* Each repetition takes about a second on a 2-vCPU host, so a run takes
   the median of several. Why each workload exists, and why these sizes,
   is recorded in BENCHMARK.json and README.md. *)
let all =
  let live mix ~connections ~transactions =
    Live
      {
        Live.mix;
        connections;
        transactions;
        nodes = 5;
        base_nodes = 1;
        db_size = 1000;
        action_time = 1e-6;
      }
  in
  let sim ?(seeds = 1) ?(domains = 1) scheme ~nodes ~db_size ~tps ~span =
    Sim { Sim.scheme; nodes; db_size; tps; span; seeds; domains }
  in
  [
    { name = "paper-quick"; kind = Paper { Paper.experiments = []; jobs = 2 } };
    {
      name = "sim-eager-deadlock";
      kind = sim "eager-group" ~nodes:10 ~db_size:200 ~tps:10. ~span:12. ~seeds:5;
    };
    {
      name = "sim-lazy-reconcile";
      kind = sim "lazy-group" ~nodes:40 ~db_size:4000 ~tps:10. ~span:3. ~seeds:3;
    };
    {
      name = "sim-par-eager";
      kind =
        sim "par-eager-group" ~nodes:64 ~db_size:20000 ~tps:1. ~span:8. ~seeds:4
          ~domains:2;
    };
    {
      name = "live-churn";
      kind = live (Live.Churn { burst = 25 }) ~connections:2 ~transactions:20_000;
    };
    {
      name = "live-connected";
      kind =
        live (Live.Connected { submit_share = 0.8 }) ~connections:1 ~transactions:16_000;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* --- the configuration travels to repetition processes as JSON --- *)

let to_json w =
  let num f = Json.of_float f and int = Json.int_ in
  let kind =
    match w.kind with
    | Paper c ->
        [
          ("kind", Json.Str "paper");
          ("experiments", Json.Arr (List.map (fun id -> Json.Str id) c.experiments));
          ("jobs", int c.jobs);
        ]
    | Sim c ->
        [
          ("kind", Json.Str "sim");
          ("scheme", Json.Str c.scheme);
          ("nodes", int c.nodes);
          ("db_size", int c.db_size);
          ("tps", num c.tps);
          ("span", num c.span);
          ("seeds", int c.seeds);
          ("domains", int c.domains);
        ]
    | Live c ->
        let mix =
          match c.mix with
          | Live.Churn { burst } -> [ ("mix", Json.Str "churn"); ("burst", int burst) ]
          | Live.Connected { submit_share } ->
              [ ("mix", Json.Str "connected"); ("submit_share", num submit_share) ]
        in
        (("kind", Json.Str "live") :: mix)
        @ [
            ("connections", int c.connections);
            ("transactions", int c.transactions);
            ("nodes", int c.nodes);
            ("base_nodes", int c.base_nodes);
            ("db_size", int c.db_size);
            ("action_time", num c.action_time);
          ]
  in
  Json.Obj (("name", Json.Str w.name) :: kind)

let of_json json =
  let str key = Json.string_of (Json.member key json) in
  let int key = Json.int_of (Json.member key json) in
  let num key = Json.to_float (Json.member key json) in
  let kind =
    match str "kind" with
    | "paper" ->
        Paper
          {
            Paper.experiments =
              List.map Json.string_of (Json.list_of (Json.member "experiments" json));
            jobs = int "jobs";
          }
    | "sim" ->
        Sim
          {
            Sim.scheme = str "scheme";
            nodes = int "nodes";
            db_size = int "db_size";
            tps = num "tps";
            span = num "span";
            seeds = int "seeds";
            domains = int "domains";
          }
    | "live" ->
        let mix =
          match str "mix" with
          | "churn" -> Live.Churn { burst = int "burst" }
          | "connected" -> Live.Connected { submit_share = num "submit_share" }
          | other -> Json.parse_error "unknown live mix %S" other
        in
        Live
          {
            Live.mix;
            connections = int "connections";
            transactions = int "transactions";
            nodes = int "nodes";
            base_nodes = int "base_nodes";
            db_size = int "db_size";
            action_time = num "action_time";
          }
    | other -> Json.parse_error "unknown workload kind %S" other
  in
  { name = str "name"; kind }

(* --- one repetition, in its own process --- *)

(* Scratch files — the live server's socket, the traced pass's metrics
   snapshot and Chrome trace — go here, relative to the working
   directory. *)
let work_dir = ".bench_e2e"

let ensure_work_dir () =
  try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let rep w ~exe ~seed ~traced ~spawned_at ~index =
  ensure_work_dir ();
  let overhead = if traced then Probe.span_overhead_ns () else 0. in
  let recorder = Probe.recorder () in
  let obs = Obs.create () in
  let result =
    match w.kind with
    | Paper c ->
        if traced then Paper.traced c ~seed ~spawned_at ~recorder ~obs
        else Paper.untraced c ~seed ~spawned_at
    | Sim c ->
        if traced then Sim.traced c ~seed ~spawned_at ~overhead ~recorder ~obs
        else Sim.untraced c ~seed ~spawned_at
    | Live c ->
        let socket =
          Filename.concat work_dir (Printf.sprintf "s%d.sock" (Unix.getpid ()))
        in
        Live.rep c ~name:w.name ~exe ~seed ~spawned_at ~traced ~overhead ~recorder ~obs
          ~socket
  in
  if not traced then result
  else begin
    let file ext =
      Filename.concat work_dir (Printf.sprintf "%s-seed%d-rep%d.%s" w.name seed index ext)
    in
    Probe.write_json (file "metrics.json") (Obs.snapshot_to_json (Obs.snapshot obs));
    Probe.write_json (file "trace.json") (Probe.chrome recorder ~label:w.name);
    { result with Rep.values = ("trace.span_overhead_ns", overhead) :: result.Rep.values }
  end

(* What the program computes for these inputs by another path, which every
   repetition's outputs must equal: the scheme registry at one domain, or
   the sweep at one job. The live workloads check themselves. *)
let reference_digest w ~seed =
  match w.kind with
  | Paper c -> Some (Paper.reference_digest c ~seed)
  | Sim c -> Some (Sim.reference_digest c ~seed)
  | Live _ -> None

(* Both benchmark executables re-exec themselves for repetitions and for
   the live server; this runs that child's job and exits, or returns when
   the process is not such a child. Either way it caps this process's
   heap. *)
let child_main () =
  Probe.cap_heap ~mb:1024;
  match Array.to_list Sys.argv with
  | exe :: "__rep" :: config :: seed :: traced :: spawned_at :: index :: _ ->
      let w = of_json (Json.of_string config) in
      let result =
        rep w ~exe ~seed:(int_of_string seed) ~traced:(String.equal traced "1")
          ~spawned_at:(Int64.of_string spawned_at) ~index:(int_of_string index)
      in
      print_endline (Json.to_string (Rep.to_json result));
      exit 0
  | _ :: "__serve" :: args ->
      Live.serve_main args;
      exit 0
  | _ -> ()
