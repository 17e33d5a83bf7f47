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
(** Evaluate an expression under variable bindings (the first binding of
    a name wins).  0-ary theory definitions (tables, named constants)
    resolve as variables.  The expression is compiled against the
    theory on every call; the theory itself is compiled once per domain.
    Every evaluated node spends one unit of fuel.
    @raise Error on type mismatches, unbound names, out-of-range
    indexing, or fuel exhaustion — when the offending node is evaluated,
    never earlier. *)

val apply : env -> string -> value list -> value
(** Apply a named definition to argument values.
    @raise Invalid_argument when the theory has no such definition.

    Here and in {!eval}, an application whose arguments are all scalar
    ([Vint] / [Vbool]) is memoized on the definition as compiled for the
    calling domain (theories are told apart by physical identity, the 16
    most recently compiled kept): a 0-ary table or constant keeps its
    value, a definition whose parameters are all modular types with at
    most 65,536 argument tuples ([gf_mul], [xtime]) a dense table indexed
    by its in-range arguments, and any other definition a bounded table
    of up to 65,536 results.  A repeated application returns the stored
    value without spending fuel, and an application that raises (fuel
    exhaustion included) is never stored. *)

val memo_stats : unit -> Memo.stats
(** Hits, misses and evictions of the calling domain's application
    memos, summed over its compiled theories (a theory dropped from the
    domain's cache keeps counting in the sum). *)

val default : env -> Sast.styp -> value
(** Default value of a type — for building sample inputs. *)

val enumerate : env -> ?limit:int -> Sast.styp -> value list option
(** All values of a finite scalar type, when small enough to enumerate
    ([None] otherwise). *)
