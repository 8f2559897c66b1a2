module Metrics = Dangers_sim.Metrics
module Stats = Dangers_util.Stats

type t = {
  commits : Metrics.counter;
  waits : Metrics.counter;
  deadlocks : Metrics.counter;
  restarts : Metrics.counter;
  reconciliations : Metrics.counter;
  replica_applied : Metrics.counter;
  stale_discards : Metrics.counter;
  replica_txns : Metrics.counter;
  replica_restarts : Metrics.counter;
  syncs : Metrics.counter;
  tentative_commits : Metrics.counter;
  tentative_accepted : Metrics.counter;
  tentative_rejected : Metrics.counter;
  scope_violations : Metrics.counter;
  undone : Metrics.counter;
  durable : Metrics.counter;
  deadlock_probes : Metrics.counter;
  timeout_aborts : Metrics.counter;
  apply_dropped : Metrics.counter;
}

let create metrics =
  let c = Metrics.counter metrics in
  {
    commits = c "commits";
    waits = c "waits";
    deadlocks = c "deadlocks";
    restarts = c "restarts";
    reconciliations = c "reconciliations";
    replica_applied = c "replica_applied";
    stale_discards = c "stale_discards";
    replica_txns = c "replica_txns";
    replica_restarts = c "replica_restarts";
    syncs = c "syncs";
    tentative_commits = c "tentative_commits";
    tentative_accepted = c "tentative_accepted";
    tentative_rejected = c "tentative_rejected";
    scope_violations = c "scope_violations";
    undone = c "undone";
    durable = c "durable";
    deadlock_probes = c "deadlock_probes";
    timeout_aborts = c "timeout_aborts";
    apply_dropped = c "apply_dropped";
  }

type summary = {
  scheme : string;
  window : float;
  commits : int;
  waits : int;
  deadlocks : int;
  restarts : int;
  reconciliations : int;
  commit_rate : float;
  wait_rate : float;
  deadlock_rate : float;
  reconciliation_rate : float;
  mean_duration : float;
}

let summarize ~scheme metrics (stats : t) =
  {
    scheme;
    window = Metrics.window_elapsed metrics;
    commits = Metrics.count metrics stats.commits;
    waits = Metrics.count metrics stats.waits;
    deadlocks = Metrics.count metrics stats.deadlocks;
    restarts = Metrics.count metrics stats.restarts;
    reconciliations = Metrics.count metrics stats.reconciliations;
    commit_rate = Metrics.rate metrics stats.commits;
    wait_rate = Metrics.rate metrics stats.waits;
    deadlock_rate = Metrics.rate metrics stats.deadlocks;
    reconciliation_rate = Metrics.rate metrics stats.reconciliations;
    mean_duration = Stats.mean (Metrics.txn_duration metrics);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%s over %.1fs:@ commits=%d (%.3f/s) waits=%d (%.4f/s) deadlocks=%d \
     (%.5f/s)@ restarts=%d reconciliations=%d (%.5f/s) mean duration=%.4fs@]"
    s.scheme s.window s.commits s.commit_rate s.waits s.wait_rate s.deadlocks
    s.deadlock_rate s.restarts s.reconciliations s.reconciliation_rate
    s.mean_duration
