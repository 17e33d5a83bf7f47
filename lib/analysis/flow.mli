(** Examiner-style data-flow checks over MiniSpark subprograms.

    Eight checks, all running on the type-checked (normalised) program:

    - {b definite initialization} ([FLOW_UNINIT], error): a variable is
      read and {e no} earlier statement on {e any} path can have written
      it.  The may-initialize (union-join) lattice makes the check
      lenient across data-dependent paths — loop-carried array fills and
      element-wise initialisation do not trip it — so a hit means a
      genuine use-before-set on every execution.
    - {b out parameter never assigned} ([FLOW_OUT_UNSET], error): an
      [out] parameter written nowhere in the body (including [out] /
      [in out] argument positions of calls).
    - {b ineffective assignment} ([FLOW_INEFFECTIVE], warning): a
      whole-variable assignment whose value no later statement (nor any
      annotation) can observe — classic backward liveness.  Array
      element writes are exempt (partial updates flow through the rest
      of the array).
    - {b unused declaration} ([FLOW_UNUSED], warning): a local or
      parameter referenced nowhere, annotations included.
    - {b unused program-level declaration} ([FLOW_UNUSED_GLOBAL],
      warning): a constant or global variable in no subprogram's
      (transitively closed) declaration frontier ({!Depgraph.decl_refs})
      — reported once at program level ([d_sub = ""]), only by {!check}.
    - {b dead initializer} ([FLOW_DEAD_INIT], warning): a local's
      declaration initializer overwritten before any statement (or a
      later local's initializer) can read it — the declaration-site twin
      of [FLOW_INEFFECTIVE].  Suppressed for never-referenced locals,
      which are [FLOW_UNUSED] already.
    - {b unreachable code} ([FLOW_UNREACHABLE], warning): statements
      strictly after a point where every path has returned.
    - {b stable loop condition} ([FLOW_STABLE_COND], warning): a
      [While] whose condition reads no variable its body can write.

    In-out actuals of procedure calls count as writes but not reads:
    SPARK copy-in/copy-out makes passing a never-initialised scratch
    variable as [in out] legal, and the annotated AES case study does
    exactly that. *)

val check_subprogram :
  Minispark.Ast.program -> Minispark.Ast.subprogram -> Diag.t list

(** All subprograms, in declaration order. *)
val check : Minispark.Ast.program -> Diag.t list
