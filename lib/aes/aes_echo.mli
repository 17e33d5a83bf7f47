(** The §6 case study as an Echo pipeline instance; verify it with
    [Echo.Orchestrator.run case_study]. *)

val case_study : Echo.Pipeline.case_study
(** The optimized AES with its 14-block refactoring script, annotation
    set, FIPS-197 specification theory and implication lemma suite. *)
