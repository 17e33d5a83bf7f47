(** Adjusting loop forms (§5.1): re-shaping loops so invariants can be
    stated naturally. *)

val reindex : proc:string -> at:int -> offset:int -> var:string -> Transform.t
(** Shift the iteration space of the for-loop at statement [at] by
    [offset] under a fresh variable, constant-folding the body. *)

val absorb_guarded_tail :
  proc:string -> at:int -> tail_count:int -> new_hi:Minispark.Ast.expr ->
  domain:(string * int list) list -> Transform.t
(** Extend a constant-bound loop over trailing single-branch conditionals
    whose bodies are instances of the loop body at the next indices.  The
    new bound expression is validated exhaustively over [domain] (all
    valuations of its free variables): iteration counts must agree and the
    guards must be monotone.  Rejected unless every domain variable is an
    [in] parameter whose precondition restricts it to a list of values
    ([x = a or x = b ...]) that the domain contains. *)
