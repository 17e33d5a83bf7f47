(** Refactoring history (§5.2): every applied step is recorded with the
    program before and after and the equivalence evidence gathered, so any
    transformation can be removed ("recording the software's state prior to
    the application of each transformation"). *)

open Minispark

type evidence =
  | Ev_typecheck                 (** transformed program re-type-checked *)
  | Ev_differential of int       (** differential trials/points passed *)
  | Ev_exhaustive of int         (** exhaustive finite-domain points *)

val pp_evidence : evidence Fmt.t

type step = {
  st_index : int;
  st_name : string;
  st_category : Transform.category;
  st_before : Ast.program;
  st_env_before : Typecheck.env;
      (** the checked environment of [st_before]; undo restores it without
          a full re-typecheck *)
  st_after : Ast.program;
  st_evidence : evidence list;
  st_certificate : Certify.certificate option;
      (** present when the step was applied under certification *)
}

type t

val create : Typecheck.env -> Ast.program -> t
val current : t -> Typecheck.env * Ast.program
val step_count : t -> int
val steps : t -> step list

val apply :
  ?entries:string list -> ?trials:int -> ?certify:Certify.config ->
  t -> Transform.t -> step
(** Apply a transformation: framework applicability check (re-typecheck)
    plus differential semantics-preservation evidence over the given entry
    points.  With [certify], the step is instead certified per touched
    subprogram (equivalence VCs + differential oracle, see {!Certify});
    the certificate is recorded on the step, and a refuted step raises
    {!Certify.Refutation} with the state unchanged.  [entries] seeds the
    certification config's entry points when it has none.  With
    telemetry on, the step's use of {!Equivalence.runner}'s memo is
    published as the [oracle_memo_hits] / [_misses] / [_evictions]
    counters, and its use of the interpreter's compiled-program cache
    ({!Interp.memo_stats}) as [interp_memo_hits] / [_misses] /
    [_evictions].
    @raise Transform.Not_applicable on mechanical rejection (state
    unchanged). *)

val undo : t -> step
(** Roll back the most recent step, restoring its pre-image. *)

val category_counts : t -> (Transform.category * int) list
val pp_summary : t Fmt.t

val certificates : t -> (int * string * Certify.certificate) list
(** Per-step certificates (step index, transformation name), oldest
    first; empty when the history was built without certification. *)

val certification_stats : t -> Certify.stats
(** Aggregate certification statistics across all applied steps. *)
