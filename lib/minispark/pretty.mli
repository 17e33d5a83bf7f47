(** Canonical concrete-syntax printer for MiniSpark.

    The output round-trips through {!Parser}, and line-oriented metrics
    (the paper's Fig. 2(a) LoC) are defined over it. *)

val pp_expr : Ast.expr Fmt.t
val pp_typ : Ast.typ Fmt.t

val program_to_string : Ast.program -> string
val expr_to_string : Ast.expr -> string
val stmts_to_string : Ast.stmt list -> string
val typ_to_string : Ast.typ -> string

val line_count : Ast.program -> int
(** Non-blank source lines of the canonical form — the Fig. 2(a) metric. *)
