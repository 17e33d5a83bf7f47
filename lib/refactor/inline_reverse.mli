(** Reversing inlined functions or cloned code (§5.1): cloned fragments
    are replaced by calls to a definition provided by the user or derived
    from the code. *)

open Minispark

val extract_function :
  name:string -> params:Ast.param list -> ret:Ast.typ -> body:Ast.expr ->
  ?min_occurrences:int -> unit -> Transform.t
(** Introduce [function name (params) return ret] with body [body] (the
    parameter names act as metavariables) and replace every matching
    subexpression by a call. *)

val extract_procedure :
  name:string -> params:Ast.param list -> template:Ast.stmt list ->
  ?min_occurrences:int -> ?locals:Ast.var_decl list -> unit -> Transform.t
(** Introduce a procedure whose body is [template] and replace every
    matching consecutive statement slice by a call.  Writable parameters
    must match plain variables; parameter modes are validated against the
    template's dataflow, and an [out] parameter must be written before it
    is read, wholly ({!Extraction.out_params_written}).  The step claims
    the extraction ({!Transform.Extraction}). *)

(** {1 Clone detection} ("identifying cloned code fragments") *)

type clone = {
  cl_len : int;
  cl_occurrences : (string * int) list;  (** subprogram, start index *)
}

val suggest_clones : ?min_len:int -> ?max_len:int -> Ast.program -> clone list
(** Repeated statement windows (equal up to consistent variable renaming),
    maximal families first — candidates for [extract_procedure]. *)

val pp_clone : clone Fmt.t
