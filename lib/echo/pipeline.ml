(* The Echo case-study record; see pipeline.mli.  The stages themselves
   run in {!Orchestrator}. *)

open Minispark

type case_study = {
  cs_name : string;
  cs_refactor :
    ?certify:Refactor.Certify.config ->
    unit -> (Typecheck.env * Ast.program) list * Refactor.History.t;
  cs_annotate : Ast.program -> Ast.program;
  cs_original_spec : Specl.Sast.theory;
  cs_synonyms : (string * string) list;
  cs_lemmas : extracted:Specl.Sast.theory -> Implication.lemma list;
}
