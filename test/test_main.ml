let () =
  Alcotest.run "dangers"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("sim", Test_sim.suite);
      ("trace", Test_trace.suite);
      ("storage", Test_storage.suite);
      ("int_table", Test_int_table.suite);
      ("lock", Test_lock.suite);
      ("txn", Test_txn.suite);
      ("net", Test_net.suite);
      ("workload", Test_workload.suite);
      ("replication", Test_replication.suite);
      ("core", Test_core.suite);
      ("analytic", Test_analytic.suite);
      ("table", Test_table.suite);
      ("extensions", Test_extensions.suite);
      ("quorum_sim", Test_quorum_sim.suite);
      ("undo", Test_undo.suite);
      ("experiments", Test_experiments.suite);
      ("properties", Test_properties.suite);
      ("scenarios-e2e", Test_scenarios_run.suite);
      ("coverage", Test_coverage_gaps.suite);
      ("rules-e2e", Test_rules_e2e.suite);
      ("fault", Test_fault.suite);
      ("runner", Test_runner.suite);
      ("parallel-sim", Test_parallel_sim.suite);
      ("microbench", Test_microbench.suite);
      ("obs", Test_obs.suite);
      ("runtime", Test_runtime.suite);
      ("telemetry", Test_telemetry.suite);
      ("live", Test_live.suite);
      ("lint", Test_lint.suite);
    ]
