(* The AES case study end to end (§6): the workload that motivates the
   paper — an optimized implementation nobody designed for verification,
   made provable by mechanical refactoring.

   Run with: dune exec examples/aes_pipeline.exe
   (roughly a minute: 59 transformations, two proofs, ~380 VCs) *)

let () =
  (* 0. the subject program: table-driven, unrolled, word-packed AES *)
  let env0, prog0 = Aes.Aes_impl.checked () in
  let m0 = Metrics.analyze prog0 in
  Fmt.pr "optimized AES: %d lines, %d subprograms, avg cyclomatic %.2f@."
    m0.Metrics.element.Metrics.em_lines m0.Metrics.element.Metrics.em_subprograms
    m0.Metrics.complexity.Metrics.cm_avg_cyclomatic;
  let kats = Aes.Aes_kat.run_vectors env0 prog0 in
  Fmt.pr "FIPS-197 vectors: %s@."
    (if Aes.Aes_kat.all_pass kats then "all pass" else "FAIL");

  (* 1. verification refactoring: 14 blocks, each mechanically checked *)
  Fmt.pr "@.refactoring...@.";
  let snapshots, h = Aes.Aes_refactoring.run () in
  Fmt.pr "%a@." Refactor.History.pp_summary h;
  let final = List.nth snapshots 14 in
  let mf = Metrics.analyze final.Aes.Aes_refactoring.sn_program in
  Fmt.pr "refactored AES: %d lines, %d subprograms, avg cyclomatic %.2f@."
    mf.Metrics.element.Metrics.em_lines mf.Metrics.element.Metrics.em_subprograms
    mf.Metrics.complexity.Metrics.cm_avg_cyclomatic;

  (* 2. annotate with the low-level specification *)
  let annotated = Aes.Aes_annotations.annotate final.Aes.Aes_refactoring.sn_program in
  let env, annotated = Minispark.Typecheck.check annotated in
  let t1 = Aes.Aes_annotations.annotation_lines annotated in
  Fmt.pr "@.annotations: %d pre, %d post, %d invariant lines@."
    t1.Aes.Aes_annotations.t1_pre_lines t1.Aes.Aes_annotations.t1_post_lines
    t1.Aes.Aes_annotations.t1_invariant_lines;

  (* 3. implementation proof *)
  Fmt.pr "@.implementation proof...@.";
  let r = Echo.Implementation_proof.run env annotated in
  Fmt.pr "%a@." Echo.Implementation_proof.pp_report r;

  (* 4. reverse synthesis: extract the specification *)
  let extracted = Extract.extract_program env annotated in
  let mr = Aes.Aes_implication.match_ratio ~extracted in
  Fmt.pr "@.extracted specification: %d definitions, structure match %a@."
    (List.length extracted.Specl.Sast.th_defs)
    Specl.Match_ratio.pp_result mr;

  (* 5. implication proof against the FIPS-197 formalisation *)
  let imp = Aes.Aes_implication.run ~extracted in
  Fmt.pr "implication proof: %d/%d lemmas discharged in %.1fs@."
    imp.Echo.Implication.im_proved imp.Echo.Implication.im_total
    imp.Echo.Implication.im_time;

  if imp.Echo.Implication.im_proved = imp.Echo.Implication.im_total
     && r.Echo.Implementation_proof.ip_residual = 0
  then
    Fmt.pr "@.VERDICT: fully verified (every VC automatic or hint-discharged, every lemma holds)@."
  else
    Fmt.pr "@.VERDICT: %d VCs remain for interactive proof@."
      r.Echo.Implementation_proof.ip_residual
