(** Specification extraction — the "reverse synthesis" of the Echo approach
    (§3), by architectural and direct mapping (§4.1). *)

exception Unextractable of string
(** The program construct has no direct functional mapping (e.g. while
    loops, mixed return/fall-through conditionals).  The point of
    verification refactoring is to eliminate such constructs first. *)

val skeleton : Minispark.Ast.program -> Specl.Sast.theory
(** Structural skeleton of any program version (before annotation): types,
    tables, subprogram names and the operators they use.  This is what the
    Fig. 2(f) match-ratio compares against the original specification. *)

val extract_program :
  Minispark.Typecheck.env -> Minispark.Ast.program -> Specl.Sast.theory
(** Full extraction from a structured (refactored) program: each
    subprogram becomes a pure function — assignments become functional
    updates, for-loops become folds, out parameters become results (a
    tuple if several).  Tables keep their values.
    @raise Unextractable on constructs without a direct mapping. *)
