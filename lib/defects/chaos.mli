(** Fault injection for the orchestrated pipeline.

    Where {!Seed} plants defects in the *program under verification* to
    measure what the Echo process catches, this harness plants faults in
    the *pipeline machinery itself* — a rejected refactoring, an ill-typed
    annotation, infeasible VC generation, a starved prover, a crashing
    lemma — to exercise {!Echo.Orchestrator}'s recovery guarantees: [run]
    must never raise, must always return a verdict, and must degrade
    rather than discard surviving evidence. *)

(** One probe per pipeline stage. *)
type probe =
  | P_refactor_reject     (** the refactoring script raises [Not_applicable] *)
  | P_annotate_ill_typed  (** the annotation step yields an ill-typed program *)
  | P_vcgen_infeasible    (** VC generation reports an infeasible annotation set *)
  | P_prover_timeout      (** the prover budget is too small for any VC *)
  | P_lemma_crash         (** an implication lemma body raises *)

val all_probes : probe list
val probe_name : probe -> string

val expect : probe -> Echo.Orchestrator.report -> (unit, string) result
(** Does the report show the recovery the probe demands?  E.g. a starved
    prover must yield a [Degraded] verdict with every timed-out VC showing
    at least two ladder attempts, not a [Failed] or an escaped exception. *)

type outcome = {
  co_probe : probe;
  co_report : Echo.Orchestrator.report;
  co_check : (unit, string) result;
}

val run_probe :
  ?config:Echo.Orchestrator.config -> probe -> Echo.Pipeline.case_study -> outcome
(** Inject one fault and run the orchestrator over the sabotaged setup.
    Returning at all is half the contract (no escaped exception); the
    [co_check] field is the other half. *)

val run_suite :
  ?config:Echo.Orchestrator.config -> Echo.Pipeline.case_study -> outcome list
(** All five probes in stage order. *)

val all_ok : outcome list -> bool

val pp_outcome : outcome Fmt.t
val pp_suite : outcome list Fmt.t
