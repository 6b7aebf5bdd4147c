let () =
  Alcotest.run "vuvuzela"
    [
      Test_crypto.suite;
      Test_aead_wycheproof.suite;
      Test_ed25519.suite;
      Test_dp.suite;
      Test_mixnet.suite;
      Test_protocol.suite;
      Test_server.suite;
      Test_client.suite;
      Test_multiconv.suite;
      Test_network.suite;
      Test_transcript.suite;
      Test_transport.suite;
      Test_evloop.suite;
      Test_ratchet.suite;
      Test_certified.suite;
      Test_infra.suite;
      Test_faults.suite;
      Test_hop.suite;
      Test_parallel.suite;
      Test_telemetry.suite;
      Test_sim.suite;
      Test_workload.suite;
      Test_scale_plane.suite;
      Test_attack.suite;
    ]
