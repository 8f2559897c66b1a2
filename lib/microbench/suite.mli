(** The component micro-benchmark suite: lock-table fast path, contended
    FIFO and deadlock detection, the transaction path, building replica
    stores and applying updates to one, engine event throughput (on the
    engine's FIFO lanes and on its heap) and cancel churn, and the
    parallel engine's window ring. End-to-end runs live in bench/e2e.

    [quick] shrinks sample counts only — never workloads — so quick-mode
    results compare meaningfully against full-mode baselines, just with
    wider error bars. *)

type case = {
  bench : Harness.bench;
  explains : string;
      (** The bench/e2e metric whose cost this case isolates: a
          [per_layer] name in BENCHMARK.json, or an [end_to_end] one
          (such as [setup_s]) for a cost no layer metric records. *)
}

val cases : quick:bool -> case list
