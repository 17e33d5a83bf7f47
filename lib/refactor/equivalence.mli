(** Semantics-preservation checking (§5.1): the mechanical substitute for
    the paper's PVS proofs of [init(P) = init(P') => final(P) = final(P')].

    One differential oracle decides or tests one subprogram across two
    program versions.  Small input domains are decided exhaustively;
    others are tested on seeded QCheck samples drawn from the *entry's
    contract* (inputs satisfy the precondition — equal *valid* initial
    states).  A transformation's semantic applicability check and
    {!Certify}'s per-target evidence both come from {!oracle}, and
    {!check_expr_table} returns the same {!verdict} type. *)

open Minispark

type counterexample = {
  cx_sub : string;       (** subprogram (or table) that disagreed *)
  cx_inputs : string;    (** concrete input values *)
  cx_before : string;    (** original's result *)
  cx_after : string;     (** refactored result *)
}

val counterexample_to_string : counterexample -> string

type verdict =
  | Agree of { trials : int; exhaustive : bool }
      (** every trial agreed; [exhaustive] = every point of a small input
          domain was checked (a decision, not a test) *)
  | Refuted of counterexample
  | Undecided of string
      (** no valid input, no trials, an unsampleable precondition, a
          target missing from one version, or an original that exhausts
          the fuel bound *)

val oracle :
  seed:int -> trials:int -> fuel:int ->
  Typecheck.env * Ast.program -> Typecheck.env * Ast.program -> string ->
  verdict
(** [oracle ~seed ~trials ~fuel before after name] runs subprogram [name]
    of both versions on the same inputs and compares the results (a
    function's value, or a procedure's final out / in-out parameters).
    Inputs come from the *after* version's parameter types (a
    data-representation refactoring narrows domains; copy-in coercion
    widens losslessly for the before version), restricted to the
    precondition's sampling domains, and every input is filtered through
    the precondition.  When every input tuple can be enumerated (at most
    4096 points) all valid ones are run; otherwise [trials] inputs are
    drawn from a generator seeded by [seed], [name] and [trials].  Each
    run is bounded by [fuel] interpreter steps.  A differing result, a
    rewrite that raises where the original did not, or one that runs out
    of fuel where the original finished is a counterexample; two versions
    that both raise agree.  Every run is interpreted afresh; only the
    interpreter's compiled programs are cached.  Each version's
    environment must be its program's own. *)

val closure_digest : Ast.program -> string -> string
(** Digest of everything a run of a subprogram can observe once global
    initialisation succeeds: its reachable declarations and every type
    declaration — the key of {!same_closure}. *)

val same_closure :
  fuel:int -> Typecheck.env * Ast.program -> Typecheck.env * Ast.program -> string ->
  bool
(** Closure identity: subprogram [name] is in both versions, its
    {!closure_digest} is the same in both, and global initialisation
    succeeds in both within [fuel].  Every run of [name]
    then computes the same in both versions. *)

val check_expr_table :
  Typecheck.env -> Ast.program ->
  table:string -> index_var:string -> replacement:Ast.expr -> verdict
(** Exhaustive proof that [replacement] computes exactly the entries of a
    constant table over its whole index range — a decision, not a test:
    [Agree {exhaustive = true}] or [Refuted] at the first differing
    index. *)

type domain =
  | Dmember of int list        (** x = a or x = b or ... *)
  | Delems_below of int        (** for all k => x (k) < n *)
  | Dbelow of int              (** x < n *)

val domains_of_pre : Ast.expr option -> (string * domain) list
(** Sampling domains extracted from recognised precondition conjuncts. *)

val memo_readings : unit -> (string * Memo.stats) list
(** The calling domain's memos a differential run goes through, for
    {!Memo.measure}: the interpreter's compiled-program cache
    ([interp_memo]), its const-function memo ([interp_fn_memo]) and
    {!Share}'s declaration memos. *)
