(* Test entry point: aggregates every suite. *)

let () =
  Alcotest.run "gapply"
    [
      ("value", Test_value.suite);
      ("keytbl", Test_keytbl.suite);
      ("relation", Test_relation.suite);
      ("expr", Test_expr.suite);
      ("exec", Test_exec.suite);
      ("gapply", Test_gapply.suite);
      ("optimizer-analyses", Test_optimizer_analyses.suite);
      ("optimizer-rules", Test_optimizer_rules.suite);
      ("sql", Test_sql.suite);
      ("engine", Test_engine.suite);
      ("xmlpub", Test_xmlpub.suite);
      ("properties", Test_properties.suite);
      ("extensions", Test_extensions.suite);
      ("cost", Test_cost.suite);
      ("decorrelate", Test_decorrelate.suite);
      ("deep-publish", Test_deep_publish.suite);
      ("index", Test_index.suite);
      ("properties-extensions", Test_properties2.suite);
      ("parallel", Test_parallel.suite);
      ("observe", Test_observe.suite);
      ("vectorized", Test_vectorized.suite);
      ("group-local", Test_group_local.suite);
      ("order-merge", Test_order_merge.suite);
      ("plan-cache", Test_plan_cache.suite);
      ("governor", Test_governor.suite);
      ("chaos", Test_chaos.suite);
      ("store", Test_store.suite);
      ("crash", Test_crash.suite);
      ("stats", Test_stats.suite);
      ("plan-choice", Test_plan_choice.suite);
      ("mvcc", Test_mvcc.suite);
      ("net", Test_net.suite);
      ("repl", Test_repl.suite);
      ("differential", Test_differential.suite);
      ("decoders", Test_decoders.suite);
    ]
