module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Repl_stats = Dangers_replication.Repl_stats
module Reconcile = Dangers_replication.Reconcile
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Acceptance = Dangers_core.Acceptance
module Common = Dangers_replication.Common
module Metrics = Dangers_sim.Metrics
module Stats = Dangers_util.Stats
module Eager_impl = Dangers_replication.Eager_impl
module Lazy_group = Dangers_replication.Lazy_group
module Lazy_master = Dangers_replication.Lazy_master
module Lazy_group_undo = Dangers_replication.Lazy_group_undo
module Two_tier = Dangers_core.Two_tier
module Par_eager = Dangers_replication.Par_eager

type spec = {
  params : Params.t;
  profile : Profile.t option;
  transport_delay : Delay.t option;
  rule : Reconcile.rule option;
  connectivity : Connectivity.spec option;
  mobile_nodes : int list option;
  acceptance : Acceptance.t option;
  initial_value : float option;
  base_nodes : int option;
}

let spec ?profile ?transport_delay ?rule ?connectivity ?mobile_nodes
    ?acceptance ?initial_value ?base_nodes params =
  {
    params;
    profile;
    transport_delay;
    rule;
    connectivity;
    mobile_nodes;
    acceptance;
    initial_value;
    base_nodes;
  }

type outcome = {
  summary : Repl_stats.summary;
  diagnostics : (string * float) list;
}

let diagnostic outcome key = List.assoc_opt key outcome.diagnostics

type t = {
  name : string;
  doc : string;
  run_outcome : spec -> seed:int -> warmup:float -> span:float -> outcome;
}

(* Every entry validates before it builds anything, so a bad parameter
   point fails the same way at every entry point. *)
let checked spec =
  Params.validate spec.params;
  Option.iter Connectivity.validate spec.connectivity

let scheme ~name ~doc run =
  {
    name;
    doc;
    run_outcome =
      (fun spec ~seed ~warmup ~span ->
        checked spec;
        run spec ~seed ~warmup ~span);
  }

let eager ~name ~doc ownership =
  scheme ~name ~doc (fun c ~seed ~warmup ~span ->
      let sys =
        Eager_impl.create ?profile:c.profile ?initial_value:c.initial_value
          ?delay:c.transport_delay ownership c.params ~seed
      in
      Eager_impl.start sys;
      Common.measure (Eager_impl.base sys) ~warmup ~span;
      let summary = Eager_impl.summary sys in
      Eager_impl.stop_load sys;
      { summary; diagnostics = [] })

let all =
  [
    eager ~name:"eager-group"
      ~doc:"Eager update-anywhere (§3): every replica inside the transaction."
      Eager_impl.Group;
    eager ~name:"eager-master"
      ~doc:"Eager master-first (§3): the owner's replica is visited first."
      Eager_impl.Master;
    scheme ~name:"lazy-group"
      ~doc:"Lazy update-anywhere (§4): commit locally, reconcile later."
      (fun c ~seed ~warmup ~span ->
        let sys =
          Lazy_group.create ?profile:c.profile
            ?initial_value:c.initial_value ?rule:c.rule
            ?delay:c.transport_delay ?mobility:c.connectivity
            ?mobile_nodes:c.mobile_nodes c.params ~seed
        in
        Lazy_group.start sys;
        Common.measure (Lazy_group.base sys) ~warmup ~span;
        let summary = Lazy_group.summary sys in
        Lazy_group.stop_load sys;
        {
          summary;
          diagnostics =
            [ ("divergence", float_of_int (Lazy_group.divergence sys)) ];
        });
    scheme ~name:"lazy-master"
      ~doc:"Lazy master (§5): one master per object, slave updates fan out."
      (fun c ~seed ~warmup ~span ->
        let sys =
          Lazy_master.create ?profile:c.profile
            ?initial_value:c.initial_value ?delay:c.transport_delay c.params
            ~seed
        in
        Lazy_master.start sys;
        Common.measure (Lazy_master.base sys) ~warmup ~span;
        let summary = Lazy_master.summary sys in
        Lazy_master.stop_load sys;
        { summary; diagnostics = [] });
    scheme ~name:"lazy-undo"
      ~doc:
        "Undo-oriented lazy group (§7): transactions stay tentative until \
         every replica acknowledges."
      (fun c ~seed ~warmup ~span ->
        let sys =
          Lazy_group_undo.create ?profile:c.profile
            ?initial_value:c.initial_value ?mobility:c.connectivity
            ?mobile_nodes:c.mobile_nodes c.params ~seed
        in
        Lazy_group_undo.start sys;
        Common.measure (Lazy_group_undo.base sys) ~warmup ~span;
        Lazy_group_undo.stop_load sys;
        Lazy_group_undo.force_sync sys;
        let summary =
          Common.summary ~scheme:"lazy-undo" (Lazy_group_undo.base sys)
        in
        {
          summary;
          diagnostics =
            [
              ("durable", float_of_int (Lazy_group_undo.durable sys));
              ("undone", float_of_int (Lazy_group_undo.undone sys));
              ( "tentative_outstanding",
                float_of_int (Lazy_group_undo.tentative_outstanding sys) );
              ( "mean_durability_lag",
                Stats.mean (Lazy_group_undo.durability_lag sys) );
            ];
        });
    scheme ~name:"two-tier"
      ~doc:
        "Two-tier (§7): base nodes run lazy-master, mobiles work \
         tentatively and replay through acceptance on reconnect."
      (fun c ~seed ~warmup ~span ->
        let base_nodes =
          match c.base_nodes with
          | Some n -> n
          | None -> max 1 (c.params.Params.nodes / 2)
        in
        let sys =
          Two_tier.create ?profile:c.profile
            ?initial_value:c.initial_value ?acceptance:c.acceptance
            ?delay:c.transport_delay ?mobility:c.connectivity ~base_nodes
            c.params ~seed
        in
        Two_tier.start sys;
        Common.measure (Two_tier.base sys) ~warmup ~span;
        (* The summary is the measured window; the convergence diagnostics
           are only meaningful after the final quiesce-and-sync. *)
        let summary = Two_tier.summary sys in
        Two_tier.quiesce_and_sync sys;
        {
          summary;
          diagnostics =
            [
              ( "tentative_commits",
                float_of_int
                  (Metrics.total
                     (Two_tier.base sys).Common.stats
                       .Repl_stats.tentative_commits) );
              ( "tentative_accepted",
                float_of_int (Two_tier.tentative_accepted sys) );
              ( "tentative_rejected",
                float_of_int (Two_tier.tentative_rejected sys) );
              ("converged", if Two_tier.converged sys then 1. else 0.);
              ( "base_serializable",
                if Two_tier.base_history_serializable sys then 1.
                else 0. );
            ];
        });
    (* The one scheme that actually spends the ambient domain budget;
       results are byte-identical at any value by construction. *)
    scheme ~name:"par-eager-group"
      ~doc:
        "Eager update-anywhere re-derived as a message-passing distributed \
         system, one parallel-engine partition per node."
      (fun c ~seed ~warmup ~span ->
        (match c.transport_delay with
        | Some d when not (Delay.min_bound d > 0.) ->
            invalid_arg
              (Format.asprintf
                 "par-eager-group: delay model %a has a zero minimum \
                  transmit delay and admits no conservative lookahead; use \
                  a Constant or Uniform model with a positive lower bound"
                 Delay.pp d)
        | _ -> ());
        let domains = Dangers_sim.Observe.ambient_domains () in
        let sys =
          Par_eager.create ?profile:c.profile
            ?initial_value:c.initial_value ?delay:c.transport_delay c.params
            ~seed
        in
        Par_eager.start sys;
        Par_eager.measure ~domains sys ~warmup ~span;
        let summary = Par_eager.summary sys in
        Par_eager.stop_load sys;
        { summary; diagnostics = Par_eager.diagnostics sys });
  ]

let name s = s.name
let doc s = s.doc
let names () = List.map name all

let find wanted =
  (* Accept "eager_group" for "eager-group": shell users reach for
     underscores as often as hyphens, and the distinction carries no
     information here. *)
  let wanted =
    String.map
      (function '_' -> '-' | c -> Char.lowercase_ascii c)
      wanted
  in
  List.find_opt (fun s -> String.equal s.name wanted) all

let run_outcome s = s.run_outcome
let run s spec ~seed ~warmup ~span = (run_outcome s spec ~seed ~warmup ~span).summary

let named wanted =
  match find wanted with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scheme %S (valid schemes: %s)"
           wanted
           (String.concat ", " (names ())))

let run_named wanted spec ~seed ~warmup ~span =
  run (named wanted) spec ~seed ~warmup ~span

let run_outcome_named wanted spec ~seed ~warmup ~span =
  run_outcome (named wanted) spec ~seed ~warmup ~span

let seeds ~quick ~base =
  if quick then [ base ] else [ base; base + 101; base + 202 ]
