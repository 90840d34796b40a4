let () =
  Alcotest.run "sedna"
    [
      ("nid", Test_nid.suite);
      ("xml", Test_xml.suite);
      ("storage", Test_storage.suite);
      ("checksum", Test_checksum.suite);
      ("nodes", Test_nodes.suite);
      ("txn", Test_txn.suite);
      ("recovery", Test_recovery.suite);
      ("btree", Test_btree.suite);
      ("xquery", Test_xquery.suite);
      ("executor", Test_executor.suite);
      ("executor2", Test_executor2.suite);
      ("axes", Test_axes.suite);
      ("scale", Test_scale.suite);
      ("updates", Test_updates.suite);
      ("session", Test_session.suite);
      ("plan-cache", Test_plan_cache.suite);
      ("metrics", Test_metrics.suite);
      ("write-path", Test_write_path.suite);
      ("baselines", Test_baselines.suite);
      ("fuzz", Test_fuzz.suite);
      ("index-maint", Test_index_maint.suite);
      ("chainfilter", Test_chain_filter.suite);
      ("crash", Test_crash.suite);
      ("server", Test_server.suite);
      ("replication", Test_replication.suite);
      ("tracing", Test_tracing.suite);
      ("netchaos", Test_netchaos.suite);
      ("scrub", Test_scrub.suite);
      ("regex", Test_rx.suite);
      ("tools", Test_tools.suite);
    ]
