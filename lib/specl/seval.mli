(** Evaluator for the specification language.

    Specifications must be executable: the implication proof discharges
    leaf lemmas by exhaustive evaluation over finite domains, and
    specification-level known-answer tests validate the FIPS-197
    formalisation itself. *)

type value =
  | Vbool of bool
  | Vint of int
  | Varr of int * value array  (** first index, elements *)
  | Vtup of value list

exception Error of string

val error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

val equal : value -> value -> bool
(** Structural value equality (array first-indices must agree). *)

val to_string : value -> string

val as_int : value -> int
(** @raise Error on non-integers. *)

val as_bool : value -> bool
(** @raise Error on non-booleans. *)

val default_fuel : int

type env = {
  theory : Sast.theory;
  mutable fuel : int;  (** evaluation steps remaining; {!Error} at 0 *)
}

val make : ?fuel:int -> Sast.theory -> env

val eval : env -> (string * value) list -> Sast.sexpr -> value
(** Evaluate an expression under variable bindings.  0-ary theory
    definitions (tables, named constants) resolve as variables.
    @raise Error on type mismatches, unbound names, out-of-range
    indexing, or fuel exhaustion. *)

val apply : env -> string -> value list -> value
(** Apply a named definition to argument values.

    Here and in {!eval}, an application whose arguments are all scalar
    ([Vint] / [Vbool]; 0-ary tables and constants included) is memoized
    per domain and physical theory in a bounded table: a repeated one
    returns the stored value without spending fuel, and an application
    that raises is never stored. *)

val memo_stats : unit -> Memo.stats
(** Hits, misses and evictions of the calling domain's application
    memo. *)

val default : env -> Sast.styp -> value
(** Default value of a type — for building sample inputs. *)

val enumerate : env -> ?limit:int -> Sast.styp -> value list option
(** All values of a finite scalar type, when small enough to enumerate
    ([None] otherwise). *)
