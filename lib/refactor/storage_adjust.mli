(** Modifying redundant or intermediate computations and storage (§5.1):
    housekeeping transformations that shorten VCs or align names with the
    specification. *)

open Minispark

val inline_temp : proc:string -> temp:string -> Transform.t
val introduce_temp :
  proc:string -> at:int -> name:string -> typ:Ast.typ -> expr:Ast.expr -> Transform.t
val remove_dead_assignments : proc:string -> Transform.t
val rename_local : proc:string -> from_name:string -> to_name:string -> Transform.t
val rename_sub : from_name:string -> to_name:string -> Transform.t
(** Rename a subprogram: its declaration and every call, in bodies,
    contracts and initialisers.  Not applicable where [to_name] is
    already declared, or where a subprogram that calls it binds
    [to_name]: the type checker would read such a call as an indexing.  The step claims the renaming
    ({!Transform.Renaming}). *)

val check_renaming :
  from_name:string -> to_name:string ->
  Typecheck.env * Ast.program -> Typecheck.env * Ast.program ->
  (unit, string) result
(** [check_renaming ~from_name ~to_name before after]: [Ok] when renaming
    subprogram [to_name] of [after] back to [from_name] gives [before],
    declaration for declaration ({!Minispark.Share.same_decls}).  Nothing
    else needs
    checking.  The interpreter resolves a call by its name among the
    subprograms alone.  Both programs are type-checked, so [before]
    declares one subprogram [from_name] and [after] none (renaming back
    would give [before] two), and renaming back is a bijection between
    their subprogram names: whole-program alpha-equivalence.  Where a
    parameter, local or global object is named [to_name], the type
    checker reads a call of it as an indexing, which renaming back does
    not touch. *)

val remove_unused_decl : name:string -> Transform.t
val rename_type : from_name:string -> to_name:string -> Transform.t
