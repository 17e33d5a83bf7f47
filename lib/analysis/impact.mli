(** Change-impact analysis: compose {!Depgraph} and {!Semdiff} into the
    minimal sound re-prove set (§15).

    A subprogram must be re-proved when any of the following holds;
    everything else keeps its baseline verdicts:

    - its own text changed ({!Semdiff} classified it as anything other
      than unchanged);
    - it directly calls (or references from its contract) a subprogram
      whose signature or spec changed — vcgen inlines callee contracts
      into caller obligations;
    - some subprogram whose body the prover may ground-evaluate while
      discharging its VCs changed ({!Depgraph.eval_deps});
    - a program-level declaration (type, constant, global) that its text
      or its evaluation frontier references changed.

    The static argument is backstopped by a VC-digest refinement
    ({!refine}): after re-generating VCs for the new program, any
    subprogram whose per-VC digest set drifted from the baseline is
    escalated into the re-prove set regardless of what the graph said. *)

open Minispark

type reason =
  | R_changed of Semdiff.change
  | R_caller of Ast.ident        (** direct callee's signature/spec changed *)
  | R_eval_dep of Ast.ident      (** evaluation frontier includes a changed
                                     subprogram *)
  | R_decl of Ast.ident          (** references a changed declaration *)
  | R_vc_drift                   (** VC digest set differs from baseline *)

val reason_name : reason -> string

type plan = {
  pl_diff : Semdiff.t;
  pl_graph : Depgraph.t;             (** graph of the {e new} program *)
  pl_impacted : (Ast.ident * reason list) list;  (** sorted by name *)
  pl_carried : Ast.ident list;
      (** subprograms of the new program whose baseline verdicts remain
          valid, sorted *)
}

val compute : old_o:Semdiff.outline -> new_o:Semdiff.outline -> Ast.program -> plan
(** Static plan from the baseline's outline and the new program, whose
    outline is [new_o] (both should be of the normalised form returned by
    {!Typecheck.check}). *)

val refine :
  plan ->
  baseline:(Ast.ident * string list) list ->
  current:(Ast.ident * string list) list ->
  plan
(** Escalate any currently-carried subprogram whose VC digest set under
    the new program differs from the baseline's (or that is missing from
    either side).  [baseline] and [current] map subprogram names to their
    VC digests, order-insensitive. *)

val impacted_subs : plan -> Ast.ident list
val is_impacted : plan -> Ast.ident -> bool

val pp : plan Fmt.t
(** Human-readable impact table. *)

val to_json : plan -> string
