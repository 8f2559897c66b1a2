(** The component micro-benchmark suite: lock-table fast path, contended
    FIFO and deadlock detection, engine event throughput and cancel
    churn, and the parallel engine's window ring. End-to-end runs live in
    bench/e2e.

    [quick] shrinks sample counts only — never workloads — so quick-mode
    results compare meaningfully against full-mode baselines, just with
    wider error bars. *)

type case = {
  bench : Harness.bench;
  explains : string;
      (** The bench/e2e per-layer metric (a [per_layer] name in
          BENCHMARK.json) whose cost this case isolates. *)
}

val cases : quick:bool -> case list
