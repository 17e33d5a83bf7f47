(** Interval abstract interpretation of MiniSpark subprograms.

    The abstract state maps each scalar variable to an {!Itv.t}; an
    array-typed variable maps to the {e hull} of its elements (one
    interval covering every element any execution could store).  Missing
    bindings read as top.  Assignments to a [Tmod] variable wrap; [Tint]
    range subtypes are {e not} clamped on assignment — staying inside the
    range is a proof obligation, not a dynamic truncation, exactly as in
    {!Minispark.Interp}.  Uninitialised locals start at the singleton of
    {!Minispark.Interp.default_value}, matching the interpreter. *)

type state = Itv.t Map.Make(String).t

val lookup : state -> string -> Itv.t

(** Abstract value of an expression in a state.  [sub] scopes
    {!Minispark.Typecheck.expr_type} lookups for bitwise operand widths. *)
val eval :
  Minispark.Typecheck.env ->
  Minispark.Ast.program ->
  Minispark.Ast.subprogram option ->
  state ->
  Minispark.Ast.expr ->
  Itv.t

(** Run the body from its entry state (parameters at their type ranges,
    locals at their initialisers, globals and constants at their values)
    and give each variable an interval containing every value it can hold
    at subprogram exit; empty when every path returns. *)
val exit_intervals :
  Minispark.Typecheck.env ->
  Minispark.Ast.program ->
  Minispark.Ast.subprogram ->
  (string * Itv.t) list
