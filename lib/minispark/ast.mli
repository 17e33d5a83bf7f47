(** Abstract syntax of MiniSpark, the SPARK-Ada-like subset used as the
    implementation language for Echo verification.

    Design note: nodes carry no source locations.  Verification
    refactoring compares, rewrites and synthesises subtrees all the time,
    and structural equality of semantically identical fragments is
    load-bearing (e.g. for loop rerolling and clone detection).
    Line-oriented metrics are computed on the pretty-printed form
    instead. *)

type ident = string

(** Types.  [Tint None] is unconstrained integer; [Tint (Some (lo, hi))] a
    range subtype; [Tmod m] a modular (wrapping) type of modulus [m];
    [Tarray (lo, hi, elt)] a constrained array; [Tnamed n] a reference to
    a declared type name, resolved by the type checker. *)
type typ =
  | Tbool
  | Tint of (int * int) option
  | Tmod of int
  | Tarray of int * int * typ
  | Tnamed of ident

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or | And_then | Or_else
  | Band | Bor | Bxor | Shl | Shr

type quantifier = Forall | Exists

(** Expressions.  [Old] and [Result] are only legal inside annotations
    (postconditions); [Quantified] only inside annotations. *)
type expr =
  | Bool_lit of bool
  | Int_lit of int
  | Var of ident
  | Index of expr * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of ident * expr list
  | Aggregate of expr list
  | Old of ident
  | Result
  | Quantified of quantifier * ident * expr * expr * expr
      (** [Quantified (q, i, lo, hi, body)]: [for all i in lo .. hi => body] *)

type lvalue =
  | Lvar of ident
  | Lindex of lvalue * expr

type stmt =
  | Null
  | Assign of lvalue * expr
  | If of (expr * stmt list) list * stmt list
      (** branches (if/elsif guards with bodies) and the else body *)
  | For of for_loop
  | While of while_loop
  | Call_stmt of ident * expr list
  | Return of expr option
  | Assert of expr

and for_loop = {
  for_var : ident;
  for_reverse : bool;
  for_lo : expr;
  for_hi : expr;
  for_invariants : expr list;
  for_body : stmt list;
}

and while_loop = {
  while_cond : expr;
  while_invariants : expr list;
  while_body : stmt list;
}

type param_mode = Mode_in | Mode_out | Mode_in_out

type param = {
  par_name : ident;
  par_mode : param_mode;
  par_typ : typ;
}

type var_decl = {
  v_name : ident;
  v_typ : typ;
  v_init : expr option;
}

type subprogram = {
  sub_name : ident;
  sub_params : param list;
  sub_return : typ option;
      (** [Some t] for a function, [None] for a procedure *)
  sub_pre : expr option;
  sub_post : expr option;
  sub_locals : var_decl list;
  sub_body : stmt list;
}

type const_decl = {
  k_name : ident;
  k_typ : typ;
  k_value : expr;
}

type decl =
  | Dtype of ident * typ
  | Dconst of const_decl
  | Dvar of var_decl
  | Dsub of subprogram

type program = {
  prog_name : ident;
  prog_decls : decl list;
}

(** {1 Lookup helpers} *)

val decl_name : decl -> ident
val subprograms : program -> subprogram list
val find_sub : program -> ident -> subprogram option
val find_sub_exn : program -> ident -> subprogram
val constants : program -> const_decl list
val type_decls : program -> (ident * typ) list
val global_vars : program -> var_decl list

val replace_sub : program -> subprogram -> program
(** Replace the named subprogram wholesale; raises if absent. *)

val update_sub : program -> ident -> (subprogram -> subprogram) -> program
(** Apply the function to the named subprogram, leaving the rest
    unchanged. *)

val insert_decl_before : program -> anchor:ident -> decl -> program
(** Insert a declaration immediately before the subprogram [anchor] (used
    by refactorings that synthesise helper functions next to their call
    site); appends if the anchor is absent. *)

val remove_decl : program -> ident -> program

(** {1 Traversal and rewriting}

    All rewriting combinators preserve physical sharing: a node (or list)
    none of whose parts changed is returned as-is, not rebuilt.  A
    one-procedure transformation therefore leaves every other declaration
    physically identical — the incremental re-typechecker and the
    interpreter's program cache key on this. *)

val map_sharing : ('a -> 'a) -> 'a list -> 'a list
(** [List.map] that returns the original list when every element is
    physically unchanged. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up expression rewriting: children first (left to right, in a
    deterministic order — effectful rewriters rely on it), then the node
    itself. *)

val map_lvalue_exprs : (expr -> expr) -> lvalue -> lvalue

val map_stmt_exprs : (expr -> expr) -> stmt -> stmt
(** Rewrite every expression occurring in a statement (guards, bounds,
    right-hand sides, call arguments, invariants, assertions), including
    inside nested bodies. *)

val map_stmts : (stmt -> stmt list) -> stmt list -> stmt list
(** Rewrite statements bottom-up: the function sees each statement after
    its sub-statements have been rewritten, and may expand one statement
    into a list (or delete it by returning []). *)

val iter_expr : (expr -> unit) -> expr -> unit
val iter_lvalue_exprs : (expr -> unit) -> lvalue -> unit

val map_own_exprs : (expr -> expr) -> stmt -> stmt
(** Rewrite the expressions attached directly to one statement node
    (guards, bounds, invariants, arguments), leaving nested bodies alone.
    The function is a whole-expression transformer (compose with
    [map_expr] for a node-local rewrite); it is applied exactly once per
    attached expression, left to right, so effectful rewriters (literal
    collectors) see a deterministic single traversal. *)

val iter_own_exprs : (expr -> unit) -> stmt -> unit
(** Apply the function once to each whole expression attached directly to
    one statement node — the read-side mirror of [map_own_exprs].
    Compose with [iter_expr] inside the callback to visit individual
    nodes. *)

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** Visit every statement, including nested bodies, parents first. *)

(** {1 Derived queries} *)

val lvalue_base : lvalue -> ident
(** The root variable of an lvalue: [a (i) (j)] gives [a]. *)

val expr_vars : expr -> ident list
(** Free variable names of an expression, sorted and deduplicated
    (quantified variables excluded; called function names are not
    variables). *)

val written_vars : out_params_of:(ident -> int list) -> stmt list -> ident list
(** All variables a statement list may write: assignment targets, loop
    variables, plus [out] arguments of procedure calls, resolved through
    [out_params_of] (positions of out/in-out parameters per callee). *)

val read_vars : stmt list -> ident list
(** Variables read anywhere in a statement list (including guards and
    loop bounds). *)

val subst_expr : (ident * expr) list -> expr -> expr
(** Substitute variables by expressions (capture-naive: callers must
    avoid substituting under a quantifier binding the same name, which
    the refactoring library guarantees by generating fresh loop
    variables). *)

val subst_lvalue : (ident * expr) list -> lvalue -> lvalue
val subst_stmts : (ident * expr) list -> stmt list -> stmt list
val expr_of_lvalue : lvalue -> expr

val equal_expr : expr -> expr -> bool
(** Structural equality (OCaml [=] is correct here: pure data, no
    closures, no cyclic structure), named for readability at call
    sites. *)

val equal_stmts : stmt list -> stmt list -> bool

val stmt_count : stmt list -> int
(** Number of statement nodes, counting nested bodies; used by metrics
    and by refactoring heuristics. *)
