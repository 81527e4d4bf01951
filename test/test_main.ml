let () =
  Alcotest.run "mortar"
    [
      ("util", Test_util.tests);
      ("sim", Test_sim.tests);
      ("parallel", Test_parallel.tests);
      ("net", Test_net.tests);
      ("cluster-coords", Test_cluster_coords.tests);
      ("overlay", Test_overlay.tests);
      ("core-data", Test_core_data.tests);
      ("sketch", Test_sketch.tests);
      ("ts-list", Test_ts_list.tests);
      ("ts-list-diff", Test_ts_list_diff.tests);
      ("topology-equiv", Test_topology_equiv.tests);
      ("routing", Test_routing.tests);
      ("query-msl", Test_query_msl.tests);
      ("dht-sdims", Test_dht_sdims.tests);
      ("central-wifi", Test_central_wifi.tests);
      ("emulation", Test_emulation.tests);
      ("faults", Test_faults.tests);
      ("peer", Test_peer.tests);
      ("experiments", Test_experiments.tests);
      ("scenario", Test_scenario.tests);
      ("cli", Test_cli.tests);
      ("result-ledger", Test_ledger.tests);
      ("obs", Test_obs.tests);
      ("edge-cases", Test_edge_cases.tests);
      ("integration", Test_integration.tests);
      ("self-heal", Test_selfheal.tests);
      ("plan", Test_plan.tests);
      ("lint", Test_lint.tests);
      ("lint-suppress", Test_suppress.tests);
    ]
