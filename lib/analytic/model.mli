(** Unified per-scheme predictions and the paper's headline growth claims. *)

type scheme =
  | Eager_group
  | Eager_master
  | Lazy_group
  | Lazy_master
  | Two_tier

val scheme_name : scheme -> string
val all_schemes : scheme list

type prediction = {
  transaction_size : float;  (** actions per user transaction *)
  transaction_duration : float;  (** seconds *)
  transactions_per_user_update : float;
      (** Table 1's propagation cost: eager 1, lazy N, two-tier N+1 *)
  object_owners : float;  (** Table 1's ownership column: group N, master 1 *)
  total_transactions : float;  (** concurrent, system-wide *)
  action_rate : float;  (** update actions per second, system-wide *)
  wait_rate : float;  (** waits per second, system-wide *)
  deadlock_rate : float;  (** deadlocks per second, system-wide *)
  reconciliation_rate : float;  (** reconciliations per second, system-wide *)
}

val predict : scheme -> Params.t -> prediction
(** The model's prediction for one scheme at one parameter point. The model
    does not separate eager-group from eager-master rates; they differ only
    in the ownership column. Two-tier's reconciliation entry is 0 — its
    premise is commutative transaction design; acceptance-test failures are
    application-specific (§7) and measured, not predicted. *)

val growth_ratio :
  (Params.t -> float) -> Params.t -> scale:(Params.t -> Params.t) -> float
(** [growth_ratio f p ~scale] = [f (scale p) /. f p] — e.g. the 10x-nodes
    1000x-deadlocks claim is
    [growth_ratio Eager.total_deadlock_rate p
       ~scale:(fun p -> { p with nodes = 10 * p.nodes })] = 1000. *)
