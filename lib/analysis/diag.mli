(** Structured analyzer diagnostics: machine-readable code, severity,
    subprogram, and a best-effort line anchor into the pretty-printed
    program (MiniSpark AST nodes carry no source locations). *)

type severity = Error | Warning | Info

type code =
  | FLOW_UNINIT  (** read of a variable on a path with no prior write *)
  | FLOW_OUT_UNSET  (** [out] parameter never assigned in the body *)
  | FLOW_INEFFECTIVE  (** assignment whose value is never used *)
  | FLOW_UNUSED  (** local or parameter referenced nowhere *)
  | FLOW_UNUSED_GLOBAL
      (** program-level constant or global in no subprogram's
          declaration frontier *)
  | FLOW_DEAD_INIT
      (** declaration initializer overwritten before any read *)
  | FLOW_UNREACHABLE  (** statement after an unconditional [Return] *)
  | FLOW_STABLE_COND  (** [While] condition no body statement can change *)
  | AMEN_REROLL  (** unrolled loop run; [Refactor.Reroll] applies *)
  | AMEN_CLONE  (** repeated clone; [Refactor.Inline_reverse] applies *)
  | AMEN_TABLE  (** constant-table lookups; table-introduction applies *)
  | AMEN_PACKED  (** packed-word shift/mask idiom *)
  | AMEN_DEAD  (** dead code from the flow checks; remove before refactoring *)

type t = {
  d_code : code;
  d_severity : severity;
  d_sub : string;  (** enclosing subprogram, or [""] for program level *)
  d_line : int;  (** 1-based line in the pretty-printed program; 0 = none *)
  d_message : string;
}

val make :
  ?severity:severity -> ?sub:string -> ?line:int -> code -> string -> t
(** [make code msg].  Severity defaults to the code's natural severity:
    [FLOW_UNINIT] and [FLOW_OUT_UNSET] are errors, other flow checks are
    warnings, amenability findings are informational. *)

val count : severity -> t list -> int

(** [anchor program ~sub stmt] locates the first pretty-printed line of
    [stmt] inside [sub]'s section of [Pretty.program_to_string program];
    returns 0 when the text does not appear (e.g. after rewriting). *)
val anchor : Minispark.Ast.program -> sub:string -> Minispark.Ast.stmt -> int

val to_json : t -> Telemetry.Json.t
val pp : Format.formatter -> t -> unit
