(** The extraction scheme (DESIGN.md §32): the step moved statements into
    a new procedure and replaced them by calls of it.  A procedure split
    and a clone extraction both claim it ({!Transform.Extraction}). *)

open Minispark

val out_params_written :
  Typecheck.env -> Ast.program -> Ast.param list -> Ast.stmt list ->
  (unit, string) result
(** [out_params_written env program params body]: [Ok] when [body]
    writes every [out] parameter of [params] on every path before
    reading it, and wholly — a scalar by an assignment or a call's
    copy-out, an array by those or cell by cell at literal indices
    covering its range (a loop counts only when literal bounds run it at
    least once).  Then nothing the body does or leaves depends on an out
    parameter's value on entry, which a call sets to its type's default.
    [program] gives the modes of the procedures [body] calls. *)

val inline : callee:Ast.subprogram -> Ast.program -> Ast.program
(** [inline ~callee program]: every call of [callee] replaced by its body
    with the actuals substituted for the formals, and [callee]'s
    declaration deleted — what {!check_scheme} compares with the step's
    before. *)

val check_scheme :
  callee:string ->
  Typecheck.env * Ast.program -> Typecheck.env * Ast.program ->
  (unit, string) result
(** [check_scheme ~callee before after]: [Ok] when every call of
    procedure [callee] in [after] runs exactly as its body inlined with
    the actuals substituted for the formals, and inlining every call and
    deleting [callee]'s declaration gives [before], declaration for
    declaration ({!Minispark.Share.same_decls}) — so [after] behaves as
    [before], fuel aside (a call costs one interpreter step).  The
    side-conditions, each checked (labelled as in DESIGN.md §32):
    + (a) [callee] has no locals and no [return];
    + (b) its [out] parameters are written before they are read, wholly
      ({!out_params_written});
    + (c) each [out] and [in out] actual is a parameter, local or loop
      variable of the caller (the type checker keeps them distinct);
    + (d) an [in] actual reads only constants and the caller's variables,
      none passed for an [out] or [in out] parameter that the body
      writes, and calls no function that reads a global variable;
    + (e) an [in] actual that can raise (indexing, division, a shift, a
      function call) is read by the body on every path that completes,
      and calls no subprogram that recurses or has a [while] loop;
    + (f) the body's free variables are bound in no caller, and the body
      binds neither its parameters' names nor a variable an actual reads;
    + (r) copy-in and copy-out coerce nothing: each actual is exact for its
      formal's type, and the caller and the callee store into their own
      variables only values exact for the variables' types (a global
      variable is never assumed exact).
    [Error] names the first condition that fails. *)
