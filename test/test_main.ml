let () =
  Alcotest.run "gprs"
    [
      ("sim", Test_sim.suite);
      ("vm", Test_vm.suite);
      ("sched", Test_sched.suite);
      ("exec", Test_exec.suite);
      ("wal", Test_wal.suite);
      ("faults", Test_faults.suite);
      ("order", Test_order.suite);
      ("gprs", Test_gprs.suite);
      ("cpr", Test_cpr.suite);
      ("recovery", Test_recovery.suite);
      ("workloads", Test_workloads.suite);
      ("analysis", Test_analysis.suite);
      ("lint", Test_lint.suite);
      ("integration", Test_integration.suite);
      ("fusion", Test_reference.fusion);
      ("compile", Test_reference.compile);
      ("pool", Test_reference.pool);
      ("crash", Test_crash.suite);
      ("race", Test_race.suite);
      ("service", Test_service.suite);
      ("points", Test_points.suite);
      ("properties", Props.suite);
    ]
