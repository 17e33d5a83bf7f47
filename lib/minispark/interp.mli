(** Big-step interpreter for MiniSpark, compiled per subprogram to
    closures on first call and cached per domain and program; the
    results of pure scalar functions are memoized per domain across
    programs ({!fn_memo_stats}).

    Annotations ([Assert], loop invariants, pre/post) are not executed —
    they are comments to Ada — so an annotated program and its bare version
    have identical dynamic semantics, which the refactoring equivalence
    checks rely on.  Procedure calls use SPARK copy-in/copy-out passing;
    arrays are values, so there is no aliasing at runtime. *)

exception Stuck of string
(** Execution cannot proceed: out-of-range index, division by zero,
    unbound name. *)

exception Out_of_fuel
(** The step budget ([?fuel]) was exhausted.  Distinct from {!Stuck} so a
    differential oracle can report a rewrite that introduces divergence as
    a counterexample rather than a generic runtime fault. *)

type rt
(** A runtime: a type-checked program with initialised globals and a fuel
    budget. *)

val default_fuel : int

val make : ?fuel:int -> Typecheck.env -> Ast.program -> rt
(** Build a runtime; evaluates global constant and variable initialisers.
    The program must already be type-checked (normalised). *)

val fresh_runtime : ?fuel:int -> Typecheck.env -> Ast.program -> rt
(** Alias of {!make}. *)

val fuel_left : rt -> int
(** Steps still available: the budget minus what global initialisation
    consumed, for a runtime that has not run anything yet. *)

val default_value : Typecheck.env -> Ast.typ -> Value.t
(** Zero/default value of a type (range types default to their lower
    bound). *)

val coerce : Typecheck.env -> Ast.typ -> Value.t -> Value.t
(** Coerce a value to a declared type: wraps plain integers into modular
    values and fixes array bounds, recursively. *)

val run_function : rt -> string -> Value.t list -> Value.t
(** Call a function by name.  @raise Stuck on runtime errors. *)

val run_procedure : rt -> string -> Value.t list -> Value.t list
(** Call a procedure with values for its [in] and [in out] parameters (in
    declaration order); [out] parameters are synthesised.  Returns the
    final values of out / in-out parameters, in declaration order. *)

val global_value : rt -> string -> Value.t
(** Current value of a global object (e.g. a table constant). *)

val eval_expr : rt -> (string * Value.t) list -> Ast.expr -> Value.t
(** Evaluate an expression under explicit bindings; globals of the program
    are visible.  Quantifiers are evaluated by enumeration. *)

val memo_stats : unit -> Memo.stats
(** Hits, misses and evictions of the calling domain's compiled-program
    cache: a miss compiles a program (its subprograms are compiled on
    their first call), an eviction drops one. *)

val fn_memo_stats : unit -> Memo.stats
(** Hits, misses and evictions of the calling domain's const-function
    memo.  A function whose parameters are all scalar [in] parameters and
    that reads no mutable global, transitively, has its results memoized
    under its behaviour: the function's name with its
    {!Share.closure_digest}, which covers its reachable callees and the
    constants and types they read (two functions can share one closure,
    so the name is part of the key).  One memo per domain serves every
    program the domain runs, so a result computed on one program version
    is a hit on every later version whose function has the same
    behaviour.  A call that raises stores nothing; a hit skips the
    callee's fuel, so near the fuel bound whether a run completes can
    depend on what the domain ran before.  One total cap bounds the
    memo, however many programs the domain sees. *)
