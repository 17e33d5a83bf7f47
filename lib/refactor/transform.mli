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

type t = {
  tr_name : string;
  tr_category : category;
  tr_describe : string;
  tr_apply : Typecheck.env -> Ast.program -> Ast.program;
}

val make :
  name:string -> category:category -> describe:string ->
  (Typecheck.env -> Ast.program -> Ast.program) -> t

val apply : t -> Typecheck.env -> Ast.program -> Typecheck.env * Ast.program
(** Apply with the framework-level applicability check: the transformed
    program must re-type-check (incrementally, against the incoming
    program as baseline).  @raise Not_applicable otherwise. *)

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

val fold_stmts : Ast.stmt list -> Ast.stmt list

val out_param_indices : Ast.program -> string -> int list
val written_vars : Ast.program -> Ast.stmt list -> string list
val read_vars : Ast.stmt list -> string list

val slice : Ast.stmt list -> from:int -> len:int -> Ast.stmt list
val splice : Ast.stmt list -> from:int -> len:int -> Ast.stmt list -> Ast.stmt list
