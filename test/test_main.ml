let () =
  Alcotest.run "nemesis-self-paging"
    (Test_engine.suite @ Test_hw.suite @ Test_disk.suite @ Test_sched.suite
   @ Test_usbs.suite @ Test_usnet.suite @ Test_obs.suite
   @ Test_core_vm.suite @ Test_domains.suite @ Test_extensions.suite
   @ Test_properties.suite @ Test_stress.suite @ Test_policy.suite
   @ Test_experiments.suite @ Test_inject.suite @ Test_crash.suite
   @ Test_scale.suite @ Test_tier.suite @ Test_share.suite
   @ Test_fleet.suite @ Test_erasure.suite @ Test_registry.suite
   @ Test_golden.suite @ Test_json.suite)
