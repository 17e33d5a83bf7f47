(** Verification-refactoring framework (§5 of the paper).

    A transformation instance is selected and parameterised by the user;
    the transformer checks applicability *mechanically* and applies it
    mechanically — the contract of the paper's Stratego/XT transformer.
    {!Not_applicable} is the mechanical rejection. *)

open Minispark

exception Not_applicable of string

val reject : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Not_applicable} with a formatted reason. *)

(** The paper's transformation categories (§5.1 general library plus the
    two case-study-specific categories of §6.2.1). *)
type category =
  | Reroll_loops
  | Move_conditional
  | Split_procedures
  | Adjust_loop_forms
  | Reverse_inlining
  | Separate_loops
  | Modify_computation
  | Modify_storage
  | Adjust_data_structures
  | Reverse_table_lookups

val category_name : category -> string

(** What a transformation asserts about the step it produced.  A claim is
    carried on the step ({!History.step}) to certification
    ({!Certify.step}), which checks it against the step's own
    [(before, after)] pair and never trusts it blind. *)
type claim =
  | Table_reversal of {
      table : string;
      index_var : string;
      replacement : Ast.expr;
      helpers : Ast.decl list;
    }
      (** the step is {!Table_reverse.reverse} with these parameters:
          checked by replaying the rewrite and its scheme's
          side-conditions ({!Table_reverse.check_scheme}) *)
  | Extraction of { callee : string }
      (** the step moved code into the new procedure [callee] and
          replaced it by calls: checked by inlining every call back and
          the side-conditions under which a call behaves as its inlined
          body ({!Extraction.check_scheme}) *)
  | Renaming of { from_name : string; to_name : string }
      (** the step renamed subprogram [from_name] to [to_name] and
          nothing else: checked by renaming back
          ({!Storage_adjust.check_renaming}) *)
  | Oracle_agreement of {
      target : string;
      trials : int;
      exhaustive : bool;
      fuel : int;
      before_digest : string;
      after_digest : string;
    }
      (** the transformation's own {!Equivalence.oracle} run found
          [target] equivalent in the two programs whose
          {!Minispark.Share.decls_digest}s are given, on [trials]
          inputs (every valid one when [exhaustive]) under [fuel] *)

type t = {
  tr_name : string;
  tr_category : category;
  tr_describe : string;
  tr_apply : Typecheck.env -> Ast.program -> Ast.program * claim option;
}

val make :
  name:string -> category:category -> describe:string ->
  (Typecheck.env -> Ast.program -> Ast.program) -> t
(** A transformation that claims nothing about its steps. *)

val make_claiming :
  name:string -> category:category -> describe:string ->
  (Typecheck.env -> Ast.program -> Ast.program * claim option) -> t

val apply :
  t -> Typecheck.env -> Ast.program -> Typecheck.env * Ast.program * claim option
(** Apply with the framework-level applicability check: the transformed
    program must re-type-check (incrementally, against the incoming
    program as baseline).  Returns the checked result and the
    transformation's claim about the step.  @raise Not_applicable
    otherwise. *)

(** {1 Template matching with metavariables}

    Templates are ordinary expressions / statement lists in which the
    [metas] names stand for arbitrary expressions; matching produces a
    consistent substitution.  Used by inlining reversal. *)

type bindings = (string * Ast.expr) list

val match_expr :
  metas:string list -> Ast.expr -> Ast.expr -> bindings -> bindings option

val match_stmts :
  metas:string list -> Ast.stmt list -> Ast.stmt list -> bindings -> bindings option

(** {1 Integer-literal skeletons}

    Two statement groups that differ only in integer literals share a
    skeleton; positions whose literals vary affinely with the group number
    reroll into a loop. *)

val literal_skeleton : Ast.stmt list -> Ast.stmt list * int list
val rebuild_literals : Ast.stmt list -> (int -> Ast.expr) -> Ast.stmt list

type affine = { base : int; step : int }

val affine_analysis :
  (Ast.stmt list * int list) list -> (Ast.stmt list * affine list) option

(** {1 Expression folding and helpers} *)

val fold_expr : Ast.expr -> Ast.expr
(** Linear constant folding: recognises that a body instantiated at a
    literal index equals its unrolled clone (e.g. [4 * 4 + 8] = [24]). *)

val fold_discards : Ast.expr -> bool
(** Would {!fold_expr} drop a subterm of this expression — a linear term
    whose coefficients cancel or that is scaled by 0, or the unselected
    components of a literally indexed aggregate?  A dropped subterm is
    no longer evaluated, so a raise or a divergence in it is lost; a fold
    that drops nothing only re-associates and evaluates literals. *)

val fold_stmts : Ast.stmt list -> Ast.stmt list

val written_vars : Ast.program -> Ast.stmt list -> string list
val read_vars : Ast.stmt list -> string list

val stmt_binders : Ast.stmt list -> string list
(** The loop and quantifier variables a statement list binds (with
    repeats). *)

val bound_names : Ast.subprogram -> string list
(** The names a subprogram binds: its parameters and locals, the
    quantifier variables of its contracts and {!stmt_binders} of its body
    (with repeats). *)

val always_evaluates : string -> Ast.expr -> bool
(** Does every evaluation of the expression evaluate this variable?  Only
    the left operand of a short-circuit operator is sure to run. *)

val slice : Ast.stmt list -> from:int -> len:int -> Ast.stmt list
val splice : Ast.stmt list -> from:int -> len:int -> Ast.stmt list -> Ast.stmt list
