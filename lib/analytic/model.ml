type scheme =
  | Eager_group
  | Eager_master
  | Lazy_group
  | Lazy_master
  | Two_tier

let scheme_name = function
  | Eager_group -> "eager-group"
  | Eager_master -> "eager-master"
  | Lazy_group -> "lazy-group"
  | Lazy_master -> "lazy-master"
  | Two_tier -> "two-tier"

let all_schemes = [ Eager_group; Eager_master; Lazy_group; Lazy_master; Two_tier ]

type prediction = {
  transaction_size : float;
  transaction_duration : float;
  transactions_per_user_update : float;
  object_owners : float;
  total_transactions : float;
  action_rate : float;
  wait_rate : float;
  deadlock_rate : float;
  reconciliation_rate : float;
}

let fi = float_of_int

let predict scheme p =
  Params.validate p;
  let n = fi p.Params.nodes in
  let eager_shape =
    {
      transaction_size = Eager.transaction_size p;
      transaction_duration = Eager.transaction_duration p;
      transactions_per_user_update = 1.;
      object_owners = n;
      total_transactions = Eager.total_transactions p;
      action_rate = Eager.action_rate p;
      wait_rate = Eager.total_wait_rate p;
      deadlock_rate = Eager.total_deadlock_rate p;
      reconciliation_rate = 0.;
    }
  in
  match scheme with
  | Eager_group -> eager_shape
  | Eager_master -> { eager_shape with object_owners = 1. }
  | Lazy_group ->
      {
        transaction_size = fi p.Params.actions;
        transaction_duration = fi p.Params.actions *. p.Params.action_time;
        transactions_per_user_update = n;
        object_owners = n;
        total_transactions = Eager.total_transactions p;
        action_rate = Eager.action_rate p;
        wait_rate = Eager.total_wait_rate p;
        deadlock_rate = 0.;
        reconciliation_rate = Lazy_group.reconciliation_rate p;
      }
  | Lazy_master ->
      {
        transaction_size = fi p.Params.actions;
        transaction_duration = fi p.Params.actions *. p.Params.action_time;
        transactions_per_user_update = n;
        object_owners = 1.;
        total_transactions = Eager.total_transactions p;
        action_rate = Eager.action_rate p;
        wait_rate = Eager.total_wait_rate p;
        deadlock_rate = Lazy_master.deadlock_rate p;
        reconciliation_rate = 0.;
      }
  | Two_tier ->
      {
        transaction_size = fi p.Params.actions;
        transaction_duration = fi p.Params.actions *. p.Params.action_time;
        transactions_per_user_update = n +. 1.;
        object_owners = 1.;
        total_transactions = Eager.total_transactions p;
        action_rate = Eager.action_rate p;
        wait_rate = Eager.total_wait_rate p;
        deadlock_rate = Lazy_master.deadlock_rate p;
        reconciliation_rate = 0.;
      }

let growth_ratio f p ~scale =
  let base = f p in
  if Float.equal base 0. then invalid_arg "Model.growth_ratio: zero base rate";
  f (scale p) /. base
