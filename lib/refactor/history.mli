(** Refactoring history (§5.2): every applied step is recorded with the
    program before and after and, once certified, its certificate, so any
    transformation can be removed ("recording the software's state prior to
    the application of each transformation"). *)

open Minispark

type step = {
  st_index : int;
  st_name : string;
  st_category : Transform.category;
  st_before : Ast.program;
  st_env_before : Typecheck.env;
      (** the checked environment of [st_before]; undo restores it without
          a full re-typecheck *)
  st_after : Ast.program;
  st_env_after : Typecheck.env;  (** the checked environment of [st_after] *)
  st_claim : Transform.claim option;
      (** what the transformation claimed about the step, for
          certification to check *)
  st_certificate : Certify.certificate option;
      (** present once the step is certified ({!run_certified}) *)
}

type t

val create : Typecheck.env -> Ast.program -> t
val current : t -> Typecheck.env * Ast.program
val step_count : t -> int
val steps : t -> step list

val apply : ?certify:Certify.config -> t -> Transform.t -> step
(** Apply a transformation: its own applicability checks (template
    matching, and for a semantic check such as
    {!Rewrite_body.replace_body} the {!Equivalence.oracle}) plus the
    framework's re-typecheck.  Inside {!run_certified}, the recorded step
    goes to the running certification.  With [certify], the step (and
    any recorded step without a certificate) is certified on its own
    right after applying it ({!run_certified} around the one step): the
    certificate is recorded on the step, and a refuted step raises
    {!Certify.Refutation} with the state unchanged.  With telemetry on,
    the application's use of the {!Equivalence.memo_readings} memos is
    published as the [interp_memo_*] and [share_*_memo_*] counters
    (certification publishes its own, see {!Certify.finish}).
    @raise Transform.Not_applicable on mechanical rejection (state
    unchanged). *)

val run_certified : Certify.config -> t -> (unit -> 'a) -> 'a
(** [run_certified cfg h script]: run [script ()], which applies steps to
    [h], and certify every step it applies while it runs: one
    {!Certify.session}, fed each recorded step without a certificate,
    then each step as {!apply} records it, so up to [cf_jobs - 1]
    domains certify beside the script.  When [script] returns or raises
    (a rejected transformation, a failed gate), the calling domain
    finishes the session and the certificates are recorded in step
    order.  When a step is refuted, the history is truncated to that
    step's pre-image (the steps before it stay, certified) and
    {!Certify.Refutation} is raised for it, winning over the script's own
    exception: the state a step-by-step certification would have stopped
    in.  Otherwise the script's result or exception stands.  Inside a
    running [run_certified] on the same history, the outer one certifies
    the steps.  Entry points come from the config's [cf_entries]. *)

val undo : t -> step
(** Roll back the most recent step, restoring its pre-image. *)

val category_counts : t -> (Transform.category * int) list
val pp_summary : t Fmt.t

val certificates : t -> (int * string * Certify.certificate) list
(** Per-step certificates (step index, transformation name), oldest
    first; empty when the history was built without certification. *)

val certification_stats : t -> Certify.stats
(** Aggregate certification statistics across all applied steps. *)
