(** User-specified transformations (§5.2): "the user can specify and prove
    a new semantics-preserving transformation using the proof template we
    provide".  [replace_body] is that proof template, mechanised: the
    applicability check *is* the equivalence check between the old and new
    versions of the subprogram, in isolation. *)

open Minispark

val add_subprograms : defs:Ast.subprogram list -> anchor:string -> Transform.t
(** Introduce fresh helper definitions before [anchor] (semantically a
    no-op; call sites come later). *)

val add_decls : decls:Ast.decl list -> anchor:string -> Transform.t

val replace_body :
  proc:string -> ?new_locals:Ast.var_decl list -> body:Ast.stmt list ->
  unit -> Transform.t
(** Swap in a new body; rejected unless {!Equivalence.oracle} finds the
    two versions observationally equivalent: exhaustively over small
    input domains, otherwise on 48 samples under certification's seed and
    fuel bound ({!Certify.default_config}).  A refuted or undecided
    target is [Not_applicable], and the message carries the
    counterexample or the reason.  An agreement is the step's claim
    ({!Transform.Oracle_agreement}), which certification reuses instead
    of sampling the target again. *)
