(** Semantics-preservation checking (§5.1): the mechanical substitute for
    the paper's PVS proofs of [init(P) = init(P') => final(P) = final(P')].

    Finite domains are decided exhaustively; others are tested
    differentially on deterministic samples drawn from the *entry's
    contract* (inputs satisfy the precondition — equal *valid* initial
    states). *)

open Minispark

type verdict =
  | Equivalent of int   (** trials/points checked *)
  | Counterexample of string

val is_equivalent : verdict -> bool

val check_sub :
  ?seed:int -> ?trials:int -> ?fuel:int ->
  Typecheck.env -> Ast.program -> Typecheck.env -> Ast.program -> string -> verdict
(** Differentially check one subprogram (same name in both programs).
    Inputs are generated from the *after* version's parameter types (a
    data-representation refactoring narrows domains; copy-in coercion
    widens losslessly for the before version).  [fuel] bounds each
    interpreter run; exhaustion counts as a counterexample (suspected
    divergence). *)

val check_program :
  ?seed:int -> ?trials:int -> ?fuel:int -> entries:string list ->
  Typecheck.env -> Ast.program -> Typecheck.env -> Ast.program -> verdict

val check_expr_table :
  Typecheck.env -> Ast.program ->
  table:string -> index_var:string -> replacement:Ast.expr -> verdict
(** Exhaustive proof that [replacement] computes exactly the entries of a
    constant table over its whole index range — a decision, not a test. *)

(** {1 Oracle substrate}

    Shared with {!Certify}'s differential fuzzing oracle: precondition
    sampling domains, exhaustive enumeration for small domains, and
    memoized fuel-bounded execution of one subprogram. *)

type domain =
  | Dmember of int list        (** x = a or x = b or ... *)
  | Delems_below of int        (** for all k => x (k) < n *)
  | Dbelow of int              (** x < n *)

val domains_of_pre : Ast.expr option -> (string * domain) list
(** Sampling domains extracted from recognised precondition conjuncts. *)

val satisfies_pre :
  Typecheck.env -> Ast.program -> Ast.subprogram -> Value.t list -> bool
(** Rejection filter: evaluate the precondition on candidate inputs. *)

val enumerate_inputs :
  Typecheck.env -> ?limit:int -> Ast.subprogram -> Value.t list list option
(** All input tuples when the input domain has at most [limit] (default
    4096) points; [None] otherwise. *)

type outcome =
  | R_vals of Value.t list  (** a function's result, or the final out /
                                in-out parameter values of a procedure *)
  | R_raised of string      (** a runtime error, with its message *)
  | R_fuel                  (** the fuel bound ran out *)

val runner :
  ?fuel:int ->
  Typecheck.env -> Ast.program -> Ast.subprogram -> Value.t list -> outcome
(** [runner env prog sub] runs [sub] of [prog] on concrete inputs, each
    run memoized per domain under the target's behaviour closure (its
    name, the digests of every declaration reachable from it, all type
    declarations), the fuel left after global initialisation and the
    inputs — so an edit elsewhere in the program reuses the run.  [env]
    must be [prog]'s own type environment.  Both the differential checks
    here and {!Certify}'s oracle run through it. *)

val run_memo_stats : unit -> Memo.stats
(** Hits, misses and evictions of the calling domain's run memo. *)

val memo_readings : unit -> (string * Memo.stats) list
(** The calling domain's memos a differential run goes through, for
    {!Memo.measure}: the run memo ([oracle_memo]), the interpreter's
    compiled-program cache ([interp_memo]) and {!Share}'s declaration
    memos. *)

val values_equal : Value.t list -> Value.t list -> bool
