let () =
  Alcotest.run "echo"
    (* serve first: the daemon tests fork worker processes, and this OCaml
       forbids Unix.fork once any domain has ever been spawned in the
       process — so they must run before the farm/prover domain suites *)
    (Test_serve.suites
   @ Test_minispark.suites @ Test_interp_edge.suites @ Test_typecheck_edge.suites @ Test_pretty_decl.suites @ Test_logic.suites @ Test_logic_more.suites @ Test_prover_soundness.suites @ Test_vcgen.suites @ Test_vc_metrics.suites
   @ Test_memo.suites @ Test_share.suites @ Test_typecheck_incremental.suites
   @ Test_refactor.suites @ Test_refactor_more.suites @ Test_metrics.suites @ Test_specl.suites
   @ Test_extract.suites @ Test_echo.suites @ Test_orchestrator.suites @ Test_aes_impl.suites
   @ Test_aes_spec.suites @ Test_aes_spec_props.suites @ Test_aes_pipeline.suites @ Test_defects.suites
   @ Test_properties.suites @ Test_aes_tables.suites @ Test_telemetry.suites
   @ Test_analysis.suites @ Test_analysis_props.suites @ Test_formula_digest.suites @ Test_hashcons.suites
   @ Test_farm.suites @ Test_prover_domains.suites @ Test_checkpoint.suites
   @ Test_certify.suites @ Test_profile.suites @ Test_impact.suites
   @ Test_text_identity.suites)
