(** Declaration-level sharing for the MiniSpark AST (§17, §21).

    The node types of {!Ast} stay plain variants and are not hash-consed:
    structural equality on bare constructors is load-bearing for clone
    detection and rerolling, and the sharing-preserving rewrite
    combinators of {!Ast} already keep untouched subtrees physically
    intact.  This module adds one guarantee on top, at declaration
    granularity: a rebuilt-but-structurally-equal declaration comes back
    as the earlier object ({!intern_decl}), which
    {!Typecheck.check_incremental} then recognises as untouched by [==]
    alone.

    Every table is a bounded, structurally keyed {!Memo.t}, one per
    domain ([Domain.DLS]): farm workers unify independently and never see
    another domain's pointers. *)

val intern_decl : Ast.decl -> Ast.decl
(** A declaration structurally equal to one still in the calling domain's
    memo comes back as that earlier object; any other declaration is
    stored and returned unchanged.  The memo is bounded, so an evicted
    declaration is only a lost fast path: results stay structurally the
    same. *)

val intern_program : Ast.program -> Ast.program
(** {!intern_decl} on every declaration; a program whose declarations all
    come back physically unchanged is itself returned unchanged. *)

val decl_refs : Ast.decl -> Ast.ident list
(** Conservative syntactic name references of a declaration (variables,
    called subprograms, named types — including local shadowers), sorted
    and deduplicated; memoized.  Used by the incremental re-typechecker
    as the dependency frontier. *)

val decl_digest : Ast.decl -> string
(** Content digest (hex), independent of pointer sharing; memoized. *)

val program_digest : Ast.program -> string
(** Content digest (hex) of a whole program, independent of pointer
    sharing; computed on every call. *)

val decls_digest : Ast.program -> string
(** Content digest (hex) of a whole program from its {!decl_digest}s:
    two programs have equal [decls_digest]s exactly when they have equal
    {!program_digest}s, and declarations digested before cost a memo
    lookup. *)

val same_decls : Ast.program -> Ast.program -> bool
(** Equal {!decls_digest}s, decided without digesting: a structural
    comparison that skips physically shared declarations and subtrees and
    stops at the first difference.  For a one-off comparison of programs
    that mostly share their declarations. *)

val interface_digest : Ast.subprogram -> string
(** Content digest (hex) of a subprogram's interface — name, parameters,
    return type, pre- and postcondition — independent of pointer sharing;
    computed on every call. *)

val closure : Ast.program -> Ast.ident list -> Ast.decl list
(** [closure prog roots]: every declaration, in program order, whose name
    is reachable from [roots] through {!decl_refs} — every declaration of
    a reached name, so whichever one a consumer resolves is included.
    Partial application to [prog] indexes its declarations once for many
    root sets. *)

val closure_digest : Ast.program -> Ast.ident list -> string
(** [closure_digest prog roots]: a digest (hex) of the {!decl_digest}s
    of {!closure}[ prog roots]. *)

val memo_stats : unit -> (string * Memo.stats) list
(** Counters of the calling domain's unifier, reference and digest memos,
    named [share_unify_memo], [share_refs_memo] and [share_digest_memo]. *)
