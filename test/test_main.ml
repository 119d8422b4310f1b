(* Aggregated alcotest entry point: one suite per module family. *)

let () =
  Alcotest.run "bar-joseph-ben-or-1998"
    (Test_prng.suites @ Test_stats.suites @ Test_sim.suites
   @ Test_delivery.suites @ Test_coinflip.suites @ Test_baselines.suites
   @ Test_synran.suites @ Test_lowerbound.suites @ Test_async.suites
   @ Test_byz.suites @ Test_supervised.suites @ Test_fault.suites
   @ Test_properties.suites @ Test_obs.suites @ Test_bitkernel.suites
   @ Test_engines.suites @ Test_detlint.suites)
