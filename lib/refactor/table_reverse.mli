(** Reversing table lookups (§6.2.1): a precomputed table is replaced by
    the explicit computation it caches, and removed.  The applicability
    check is an exhaustive proof over the table's finite index range —
    every entry must equal the interpreted replacement. *)

open Minispark

val reverse :
  table:string -> index_var:string -> replacement:Ast.expr ->
  ?helpers:Ast.decl list -> unit -> Transform.t
(** [helpers] (types, constants such as the S-box, functions such as
    gf_mul) are installed first, once, shared across reversals.  The step
    claims its parameters ({!Transform.Table_reversal}).  Not applicable
    where a subprogram indexes a parameter, local or bound variable named
    like [table]: that lookup reads no table. *)

val check_scheme :
  table:string -> index_var:string -> replacement:Ast.expr ->
  helpers:Ast.decl list ->
  Typecheck.env * Ast.program -> Typecheck.env * Ast.program ->
  (unit, string) result
(** [check_scheme ... before after]: [Ok] when [after] is a reversal of
    [table] in [before] that preserves every subprogram's behaviour:
    + installing [helpers] and replaying the transformation's own
      rewrite with the replacement as type-checked, and nothing else,
      reproduces [after] (the same declarations, {!Minispark.Share.same_decls}), and
      its constant folding drops no subterm;
    + the replacement equals the table, value for value, at every index
      of every lookup's index type, evaluated in [after] as checked in
      a function of the index;
    + every lookup's index has a modular type whose values all lie in
      the table's index range (ranged integers are not enforced at run
      time, so they do not count);
    + the replacement (each component, for an aggregate) evaluates the
      index variable outside any short-circuit operand, so an index that
      raises raises on both sides;
    + no parameter, local, loop or quantifier variable of a subprogram
      with a lookup is named like [table] or shadows a free name of the
      replacement;
    + [table] is a constant of [before], the replacement binds no
      variable and reads no global variable, and global initialisation
      succeeds in both versions.
    [Error] names the first condition that fails. *)
