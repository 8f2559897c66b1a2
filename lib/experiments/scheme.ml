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
module Lazy_group_impl = Dangers_replication.Lazy_group
module Lazy_master_impl = Dangers_replication.Lazy_master
module Lazy_group_undo = Dangers_replication.Lazy_group_undo
module Two_tier_impl = Dangers_core.Two_tier
module Par_eager_impl = Dangers_replication.Par_eager

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

module type SCHEME = sig
  type config

  val name : string
  val doc : string
  val configure : spec -> config

  val run_outcome :
    config -> seed:int -> warmup:float -> span:float -> outcome

  val run :
    config -> seed:int -> warmup:float -> span:float -> Repl_stats.summary
end

type t = (module SCHEME)

(* Validating at configure time keeps every entry point's error behaviour
   identical: a bad parameter point fails before any system is built. *)
let checked spec =
  Params.validate spec.params;
  spec

module Make_eager (O : sig
  val name : string
  val doc : string
  val ownership : Eager_impl.ownership
end) : SCHEME = struct
  type config = spec

  let name = O.name
  let doc = O.doc
  let configure = checked

  let run_outcome c ~seed ~warmup ~span =
    let sys =
      Eager_impl.create ?profile:c.profile ?initial_value:c.initial_value
        ?delay:c.transport_delay O.ownership c.params ~seed
    in
    Eager_impl.start sys;
    Common.measure (Eager_impl.base sys) ~warmup ~span;
    let summary = Eager_impl.summary sys in
    Eager_impl.stop_load sys;
    { summary; diagnostics = [] }

  let run c ~seed ~warmup ~span = (run_outcome c ~seed ~warmup ~span).summary
end

module Eager_group = Make_eager (struct
  let name = "eager-group"
  let doc = "Eager update-anywhere (§3): every replica inside the transaction."
  let ownership = Eager_impl.Group
end)

module Eager_master = Make_eager (struct
  let name = "eager-master"
  let doc = "Eager master-first (§3): the owner's replica is visited first."
  let ownership = Eager_impl.Master
end)

module Lazy_group : SCHEME = struct
  type config = spec

  let name = "lazy-group"
  let doc = "Lazy update-anywhere (§4): commit locally, reconcile later."
  let configure = checked

  let run_outcome c ~seed ~warmup ~span =
    let sys =
      Lazy_group_impl.create ?profile:c.profile
        ?initial_value:c.initial_value ?rule:c.rule ?delay:c.transport_delay
        ?mobility:c.connectivity ?mobile_nodes:c.mobile_nodes c.params ~seed
    in
    Lazy_group_impl.start sys;
    Common.measure (Lazy_group_impl.base sys) ~warmup ~span;
    let summary = Lazy_group_impl.summary sys in
    Lazy_group_impl.stop_load sys;
    {
      summary;
      diagnostics =
        [ ("divergence", float_of_int (Lazy_group_impl.divergence sys)) ];
    }

  let run c ~seed ~warmup ~span = (run_outcome c ~seed ~warmup ~span).summary
end

module Lazy_master : SCHEME = struct
  type config = spec

  let name = "lazy-master"
  let doc = "Lazy master (§5): one master per object, slave updates fan out."
  let configure = checked

  let run_outcome c ~seed ~warmup ~span =
    let sys =
      Lazy_master_impl.create ?profile:c.profile
        ?initial_value:c.initial_value ?delay:c.transport_delay c.params ~seed
    in
    Lazy_master_impl.start sys;
    Common.measure (Lazy_master_impl.base sys) ~warmup ~span;
    let summary = Lazy_master_impl.summary sys in
    Lazy_master_impl.stop_load sys;
    { summary; diagnostics = [] }

  let run c ~seed ~warmup ~span = (run_outcome c ~seed ~warmup ~span).summary
end

module Lazy_undo : SCHEME = struct
  type config = spec

  let name = "lazy-undo"
  let doc =
    "Undo-oriented lazy group (§7): transactions stay tentative until every \
     replica acknowledges."

  let configure = checked

  let run_outcome c ~seed ~warmup ~span =
    let sys =
      Lazy_group_undo.create ?profile:c.profile
        ?initial_value:c.initial_value ?mobility:c.connectivity
        ?mobile_nodes:c.mobile_nodes c.params ~seed
    in
    Lazy_group_undo.start sys;
    Common.measure (Lazy_group_undo.base sys) ~warmup ~span;
    Lazy_group_undo.stop_load sys;
    Lazy_group_undo.force_sync sys;
    let summary = Common.summary ~scheme:name (Lazy_group_undo.base sys) in
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
    }

  let run c ~seed ~warmup ~span = (run_outcome c ~seed ~warmup ~span).summary
end

module Two_tier : SCHEME = struct
  type config = spec

  let name = "two-tier"
  let doc =
    "Two-tier (§7): base nodes run lazy-master, mobiles work tentatively \
     and replay through acceptance on reconnect."

  let configure = checked

  let run_outcome c ~seed ~warmup ~span =
    let base_nodes =
      match c.base_nodes with
      | Some n -> n
      | None -> max 1 (c.params.Params.nodes / 2)
    in
    let sys =
      Two_tier_impl.create ?profile:c.profile
        ?initial_value:c.initial_value ?acceptance:c.acceptance
        ?delay:c.transport_delay ?mobility:c.connectivity ~base_nodes c.params ~seed
    in
    Two_tier_impl.start sys;
    Common.measure (Two_tier_impl.base sys) ~warmup ~span;
    (* The summary is the measured window; the convergence diagnostics are
       only meaningful after the final quiesce-and-sync. *)
    let summary = Two_tier_impl.summary sys in
    Two_tier_impl.quiesce_and_sync sys;
    {
      summary;
      diagnostics =
        [
          ( "tentative_commits",
            float_of_int
              (Metrics.total
                 (Two_tier_impl.base sys).Common.stats.Repl_stats.tentative_commits) );
          ( "tentative_accepted",
            float_of_int (Two_tier_impl.tentative_accepted sys) );
          ( "tentative_rejected",
            float_of_int (Two_tier_impl.tentative_rejected sys) );
          ("converged", if Two_tier_impl.converged sys then 1. else 0.);
          ( "base_serializable",
            if Two_tier_impl.base_history_serializable sys then 1. else 0. );
        ];
    }

  let run c ~seed ~warmup ~span = (run_outcome c ~seed ~warmup ~span).summary
end

module Par_eager_group : SCHEME = struct
  type config = spec

  let name = "par-eager-group"

  let doc =
    "Eager update-anywhere re-derived as a message-passing distributed \
     system, one parallel-engine partition per node (honours --sim-domains)."

  let configure c =
    let c = checked c in
    (match c.transport_delay with
    | Some d when not (Delay.min_bound d > 0.) ->
        invalid_arg
          (Format.asprintf
             "par-eager-group: delay model %a has a zero minimum transmit \
              delay and admits no conservative lookahead; use a Constant or \
              Uniform model with a positive lower bound"
             Delay.pp d)
    | _ -> ());
    c

  let run_outcome c ~seed ~warmup ~span =
    (* The one scheme that actually spends the ambient --sim-domains
       budget; results are byte-identical at any value by construction. *)
    let domains = Dangers_sim.Observe.ambient_domains () in
    let sys =
      Par_eager_impl.create ?profile:c.profile ?initial_value:c.initial_value
        ?delay:c.transport_delay c.params ~seed
    in
    Par_eager_impl.start sys;
    Par_eager_impl.measure ~domains sys ~warmup ~span;
    let summary = Par_eager_impl.summary sys in
    Par_eager_impl.stop_load sys;
    { summary; diagnostics = Par_eager_impl.diagnostics sys }

  let run c ~seed ~warmup ~span = (run_outcome c ~seed ~warmup ~span).summary
end

let all : t list =
  [
    (module Eager_group);
    (module Eager_master);
    (module Lazy_group);
    (module Lazy_master);
    (module Lazy_undo);
    (module Two_tier);
    (module Par_eager_group);
  ]

(* Which registry entries can actually spend a --sim-domains budget;
   everything else ignores it and runs serially (trivially byte-identical
   at any budget). The CLI uses this to tell the user when the flag will
   have no effect. *)
let parallel_capable_names = [ "par-eager-group" ]

let parallel_capable name = List.mem name parallel_capable_names

let name (module S : SCHEME) = S.name
let doc (module S : SCHEME) = S.doc
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
  List.find_opt (fun s -> String.equal (name s) wanted) all

let run (module S : SCHEME) spec ~seed ~warmup ~span =
  S.run (S.configure spec) ~seed ~warmup ~span

let run_outcome (module S : SCHEME) spec ~seed ~warmup ~span =
  S.run_outcome (S.configure spec) ~seed ~warmup ~span

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
