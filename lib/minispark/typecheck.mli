(** Static semantics for MiniSpark.

    [check] validates a program and returns a *normalised* copy: call-style
    indexing becomes [Index], intrinsic shifts become [Shl]/[Shr], logical
    [and]/[or] on modular operands become bitwise.

    SPARK-like restrictions enforced here underpin WP generation and
    refactoring: pure functions (in-parameters only, no global writes, no
    procedure calls), no procedures in expressions, no writes to
    in-parameters or constants, annotation-only constructs confined to
    annotations, and no aliased writable actuals. *)

open Ast

exception Type_error of string

type obj_kind =
  | Obj_const
  | Obj_global
  | Obj_local
  | Obj_param of param_mode

type env = {
  types : (ident * typ) list;                 (** resolved right-hand sides *)
  objects : (ident * (obj_kind * typ)) list;  (** resolved types *)
  subs : (ident * subprogram) list;
}

val resolve : env -> typ -> typ
(** Resolve named types to structural form.
    @raise Type_error on unknown names. *)

val compatible : typ -> typ -> bool
(** Assignment compatibility.  Range subtypes of integer are
    inter-assignable (range membership is a proof obligation, not a typing
    fact); modular types are inter-assignable when one modulus divides the
    other (widening preserves values, narrowing wraps deterministically). *)

val check : program -> env * program
(** Type-check; returns the environment and the normalised program.
    Declarations are processed in order (declare-before-use, as in Ada).
    Every returned declaration goes through {!Share.intern_decl}: a
    declaration structurally equal to one still in that bounded memo
    comes back as the earlier physical object.
    @raise Type_error on violations. *)

val check_incremental : baseline:(env * program) -> program -> env * program
(** Re-check a program against a checked baseline, reusing every
    declaration that is physically equal to its baseline namesake and
    whose referenced names all kept their observable surface (resolved
    type right-hand side, object kind/type, subprogram signature).  The
    result — environment and program — is structurally identical to
    [check program]; only edited declarations and their surface-affected
    dependents pay the re-checking cost.

    Precondition: [baseline] was returned by {!check} or by this function
    (a physically reused declaration skips normalisation, so the baseline
    must already be normalised).
    @raise Type_error on violations. *)

val expr_type : env -> subprogram option -> expr -> typ
(** Resolved type of a checked expression in a subprogram's scope. *)
