(** Interprocedural dependency graph over a MiniSpark program (§15).

    Nodes are subprograms; edges record why one subprogram's verification
    outcome can depend on another's text:

    - {e call} edges from statement bodies ([Call_stmt] and [Call]
      expressions, including loop invariants and assertions);
    - {e spec} edges from contract annotations (pre/postconditions) — a
      callee referenced only in a spec still binds the caller's VCs;
    - {e global} edges through shared mutable state (a writer of [g] is
      linked to every reader of [g]).

    The graph also records, per subprogram, which program-level
    declarations (constants, globals, named types) its meaning reads —
    the prover ground-evaluates function applications against those
    declarations, so they are part of the dependency frontier.

    Build on the {e normalised} program returned by {!Typecheck.check}:
    before normalisation, [Call] nodes can still denote array indexing and
    would create phantom edges. *)

open Minispark

type edge_kind =
  | Ecall            (** referenced from the body (statements, asserts,
                         loop invariants) *)
  | Espec            (** referenced from the pre/postcondition *)
  | Eglobal of Ast.ident  (** dataflow through the named global variable *)

type t

val build : Ast.program -> t

val subs : t -> Ast.ident list
(** All subprogram nodes, in declaration order. *)

val callees : t -> Ast.ident -> (Ast.ident * edge_kind) list
(** Outgoing edges: subprograms [s] depends on, with the strongest edge
    kind recorded per target (call > spec > global). *)

val callers : t -> Ast.ident -> (Ast.ident * edge_kind) list
(** Incoming edges: subprograms that depend on [s]. *)

val direct_callers : t -> Ast.ident -> Ast.ident list
(** Callers through call or spec edges only (no global dataflow). *)

val globals_read : t -> Ast.ident -> Ast.ident list
val globals_written : t -> Ast.ident -> Ast.ident list

val decl_refs : t -> Ast.ident -> Ast.ident list
(** Constants, global variables and named types whose declarations the
    subprogram's text references (transitively through type names). *)

val dependents : t -> Ast.ident list -> Ast.ident list
(** Reverse reachability: every subprogram from which some seed is
    reachable along dependency edges — the set whose verification a
    change to the seeds can influence.  Includes the seeds themselves.
    Sorted. *)

val eval_deps : t -> Ast.ident -> Ast.ident list
(** Subprograms whose {e bodies} the prover may execute while
    ground-evaluating function applications occurring in [s]'s VCs: the
    functions referenced from [s]'s body and annotations and from its
    direct callees' contracts, closed under body references.  [s] itself
    is excluded.  Sorted. *)

val decl_closure : t -> Ast.ident list -> Ast.ident list
(** Union of {!decl_refs} over the given subprograms.  Sorted. *)

val pp : t Fmt.t
val to_json : t -> string
