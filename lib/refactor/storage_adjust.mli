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
val remove_unused_decl : name:string -> Transform.t
val rename_type : from_name:string -> to_name:string -> Transform.t
