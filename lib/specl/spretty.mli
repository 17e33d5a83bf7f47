(** Printer for specification theories, in a PVS-flavoured concrete syntax:
    documentation output and the size metrics the paper quotes about the
    extracted specification (§6.2.4). *)

val prim_name : Sast.prim -> string
val pp_typ : Sast.styp Fmt.t
val pp_expr : Sast.sexpr Fmt.t
val theory_to_string : Sast.theory -> string
val line_count : Sast.theory -> int
