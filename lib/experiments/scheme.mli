(** The unified replication-scheme API.

    Every simulator the repo knows how to drive — the two eager variants
    (§3), lazy group (§4), lazy master (§5), the undo-oriented lazy-group
    variant §7 rejects, the two-tier scheme (§7), and the partitioned eager
    re-derivation on the parallel engine — is one plain record {!t} in the
    {!all} list. The CLI, the experiments, the sweep runner and the
    benchmarks all iterate over this registry instead of hard-coding
    per-scheme entry points, so adding a scheme is one list entry.

    A {!spec} is the union of every knob any scheme accepts; each scheme's
    [run_outcome] picks out the knobs it understands and ignores the rest.
    Running is deterministic: equal [(spec, seed, warmup, span)] give equal
    outcomes, which is what lets the multicore sweep runner promise
    byte-identical output at any [--jobs]. *)

module Params = Dangers_analytic.Params
module Profile = Dangers_workload.Profile
module Repl_stats = Dangers_replication.Repl_stats
module Reconcile = Dangers_replication.Reconcile
module Connectivity = Dangers_net.Connectivity
module Delay = Dangers_runtime.Delay
module Acceptance = Dangers_core.Acceptance

(** {1 Run specification} *)

type spec = {
  params : Params.t;
  profile : Profile.t option;  (** workload shape; default [Profile.of_params] *)
  transport_delay : Delay.t option;  (** message delay (eager, lazy-*, two-tier) *)
  rule : Reconcile.rule option;  (** reconciliation rule (lazy-group) *)
  connectivity : Connectivity.spec option;  (** connect/disconnect cycling *)
  mobile_nodes : int list option;  (** which nodes cycle (lazy-group, undo) *)
  acceptance : Acceptance.t option;  (** acceptance criterion (two-tier) *)
  initial_value : float option;  (** starting value of every object *)
  base_nodes : int option;
      (** two-tier base-tier size; default [max 1 (nodes / 2)] *)
}

val spec :
  ?profile:Profile.t ->
  ?transport_delay:Delay.t ->
  ?rule:Reconcile.rule ->
  ?connectivity:Connectivity.spec ->
  ?mobile_nodes:int list ->
  ?acceptance:Acceptance.t ->
  ?initial_value:float ->
  ?base_nodes:int ->
  Params.t ->
  spec
(** [spec params] with every knob left to the scheme's default. *)

(** {1 Outcomes} *)

type outcome = {
  summary : Repl_stats.summary;
  diagnostics : (string * float) list;
      (** scheme-specific post-run facts (e.g. two-tier
          ["tentative_rejected"], lazy-undo ["mean_durability_lag"]),
          in a stable order; booleans encoded as 0/1. *)
}

val diagnostic : outcome -> string -> float option

(** {1 Schemes} *)

type t = {
  name : string;
      (** Registry key, also the CLI spelling ("eager-group", "two-tier", ...). *)
  doc : string;  (** One-line description for [--help] and listings. *)
  parallel_capable : bool;
      (** Whether the scheme spends the ambient [--sim-domains] budget
          ({!Dangers_sim.Observe.with_domains}). Every scheme is
          byte-identical at any budget; only capable ones get faster. *)
  run_outcome : spec -> seed:int -> warmup:float -> span:float -> outcome;
      (** Validate the spec, build a fresh system, drive it under generator
          load for [warmup + span] simulated seconds and summarise the
          measured window. Knobs the scheme does not understand are
          ignored. Deterministic in [(spec, seed)].
          @raise Invalid_argument on an invalid spec, before any system is
          built. *)
}

(** {1 Registry} *)

val all : t list
(** Every scheme, in presentation order. *)

val name : t -> string
val doc : t -> string

val names : unit -> string list

val find : string -> t option
(** Case-insensitive lookup by [name]; underscores are accepted for
    hyphens ("eager_group" finds "eager-group"). *)

val parallel_capable : string -> bool
(** The named scheme's [parallel_capable]; [false] for an unknown name. *)

val named : string -> t
(** Like {!find}. @raise Invalid_argument on an unknown name, listing the
    valid ones. *)

val run_outcome :
  t -> spec -> seed:int -> warmup:float -> span:float -> outcome
(** [t.run_outcome]. *)

val run :
  t -> spec -> seed:int -> warmup:float -> span:float -> Repl_stats.summary
(** [run_outcome]'s summary. *)

val run_named :
  string -> spec -> seed:int -> warmup:float -> span:float ->
  Repl_stats.summary
(** @raise Invalid_argument on an unknown name, listing the valid ones. *)

val run_outcome_named :
  string -> spec -> seed:int -> warmup:float -> span:float -> outcome
(** @raise Invalid_argument on an unknown name, listing the valid ones. *)

(** {1 Seed derivation} *)

val seeds : quick:bool -> base:int -> int list
(** Three seeds normally, one in quick mode, derived from [base]. *)
