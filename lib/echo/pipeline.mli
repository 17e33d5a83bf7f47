(** The Echo process (§3) as data: a {!case_study} packages everything
    that is specific to one program — how to refactor it, how to annotate
    the result, the original specification it must imply, and the lemma
    suite connecting the two.  {!Orchestrator.run} drives the five stages
    over it; [Aes.Aes_echo.case_study] is the paper's §6 instantiation. *)

open Minispark

type case_study = {
  cs_name : string;
  cs_refactor :
    ?certify:Refactor.Certify.config ->
    unit -> (Typecheck.env * Ast.program) list * Refactor.History.t;
      (** run the verification refactoring; returns per-stage programs
          (first = original, last = final) and the recorded history.  With
          [certify], every step is certified ({!Refactor.Certify}) and its
          certificate recorded in the history; a refutation raises
          {!Refactor.Certify.Refutation} *)
  cs_annotate : Ast.program -> Ast.program;
      (** attach the low-level specification *)
  cs_original_spec : Specl.Sast.theory;
  cs_synonyms : (string * string) list;
      (** name synonyms for the structure match (e.g. cipher = encrypt) *)
  cs_lemmas : extracted:Specl.Sast.theory -> Implication.lemma list;
}
