let () =
  (* Conservation violations anywhere in the suite are hard failures:
     every occasion any test runs closes its ledger under strict mode. *)
  Obs.Ledger.set_strict true;
  Alcotest.run "patchwork"
    (List.concat
       [
         Test_netcore.suites;
         Test_packet.suites;
         Test_dissect.suites;
         Test_simcore.suites;
         Test_testbed.suites;
         Test_traffic.suites;
         Test_hostmodel.suites;
         Test_patchwork.suites;
         Test_analysis.suites;
         Test_flowstore.suites;
         Test_overlay.suites;
         Test_extra.suites;
         Test_p4.suites;
         Test_formats.suites;
         Test_iperf.suites;
         Test_future.suites;
         Test_parallel.suites;
         Test_obs.suites;
         Test_live.suites;
         Test_tsdb.suites;
         Test_segment.suites;
         Test_pipeline.suites;
         Test_ledger.suites;
         Test_capture.suites;
         Test_fuzz.suites;
         Test_gates.suites;
       ])
