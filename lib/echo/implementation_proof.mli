(** The implementation proof (§6.2.3): the annotated program is shown to
    conform to its annotations — the stand-in for the SPARK toolset run,
    with the automation fraction measured rather than estimated.

    Every VC climbs a {!Retry} ladder; [run] keeps the historical two-rung
    behaviour, [run_resilient] adds simplify-then-retry, per-VC deadlines
    and the orchestrator/chaos hook points.

    Both entry points take the proof-farm knobs: [?jobs] dispatches the
    VCs cost-descending over a work-stealing domain pool, and [?cache]
    consults (and extends) a persistent content-addressed proof cache
    keyed by {!Logic.Formula.vc_digest} plus a prover-config/hint/
    program-function signature.  Results are reassembled in generation
    order and cache traffic stays on the coordinator domain, so verdicts
    are bit-identical whatever the job count or cache temperature;
    cache-replayed VCs are flagged [vr_cached] and counted in
    [ip_cache_hits] rather than given a new status, so verdict totals
    match cold runs exactly. *)

open Minispark

type vc_status =
  | Auto                 (** discharged with no interaction *)
  | Hinted of int        (** discharged after n interactive steps *)
  | Residual of string   (** not discharged mechanically *)
  | Timed_out of float   (** every ladder rung hit its deadline *)
  | Discharged           (** proved by static interval analysis; the
                             retry ladder never scheduled it *)

type vc_result = {
  vr_vc : Logic.Formula.vc;
  vr_status : vc_status;
  vr_attempts : int;     (** ladder attempts spent on this VC *)
  vr_time : float;
  vr_cached : bool;      (** replayed from the proof cache, prover skipped *)
}

type sub_stats = {
  ss_name : string;
  ss_total : int;
  ss_auto : int;
  ss_hinted : int;
  ss_residual : int;
  ss_timed_out : int;
  ss_discharged : int;   (** statically discharged, never sent to prover *)
}

type report = {
  ip_results : vc_result list;
  ip_subs : sub_stats list;
  ip_total : int;
  ip_auto : int;
  ip_hinted : int;
  ip_residual : int;
  ip_timed_out : int;
  ip_discharged : int;   (** statically discharged, never sent to prover *)
  ip_attempts : int;     (** ladder attempts across all VCs *)
  ip_cache_hits : int;   (** VCs replayed from the proof cache *)
  ip_cache_misses : int; (** VCs sent to the prover despite an open cache *)
  ip_carried : int;      (** baseline verdicts carried over by change-impact
                             analysis; never re-proved *)
  ip_generated_nodes : int;
  ip_time : float;
  ip_infeasible : string option;
}

val empty : report
(** Degenerate report for pipeline stages that never ran. *)

val auto_fraction : report -> float
val fully_auto_subs : report -> int

val interp_of :
  Typecheck.env -> Ast.program -> string -> int list -> int option
(** Ground evaluation of program functions for the prover. *)

val standard_hints : Logic.Prover.hint list
(** Alias of {!Logic.Prover.standard_hints}. *)

val run :
  ?discharge:(Logic.Formula.vc -> bool) ->
  ?budget:Vcgen.budget -> ?max_steps:int ->
  ?jobs:int -> ?cache:Farm.Cache.t ->
  Typecheck.env -> Ast.program -> report
(** Legacy ladder (automatic, then hinted) with no deadlines — the §6.2.3
    accounting baseline.  [discharge] is the static-analysis oracle
    (e.g. {i Analysis.Discharge.vc_discharged}): VCs it accepts are
    tagged [Discharged] with zero attempts and never enter the ladder;
    soundness of the oracle is the analyzer's obligation. *)

val run_resilient :
  ?policy:Retry.policy ->
  ?filter_vcs:(Logic.Formula.vc list -> Logic.Formula.vc list) ->
  ?give_up:(unit -> bool) ->
  ?discharge:(Logic.Formula.vc -> bool) ->
  ?carry:(Logic.Formula.vc -> vc_result option) ->
  ?budget:Vcgen.budget -> ?max_steps:int ->
  ?jobs:int -> ?cache:Farm.Cache.t ->
  Typecheck.env -> Ast.program -> report
(** The orchestrated form: configurable retry ladder, and a hook point
    for VC-list filtering (used by the chaos harness).  [give_up] is polled before each VC — once true (e.g. the
    orchestrator's global deadline expired), remaining VCs are charged as
    timed out with zero attempts.  Timeouts are reported per VC, never
    raised.

    [carry] is the incremental-verification hook: consulted per VC before
    the proof cache, it returns a baseline verdict that change-impact
    analysis has certified still-valid ({!Analysis.Impact}); carried VCs
    are marked [vr_cached] and counted in [ip_carried], and the prover
    never sees them.  The caller is responsible for never carrying
    timeouts. *)

(** {1 Per-VC summaries}

    The wire form of a report: what a served job returns, what a
    baseline carries into the next job's impact planning, and what the
    orchestrator's impact stage reads back from a baseline run. *)

type vc_summary = {
  vs_name : string;     (** e.g. ["fletcher.3"] *)
  vs_sub : string;      (** owning subprogram *)
  vs_digest : string;   (** {!Logic.Formula.vc_digest} of the formula *)
  vs_status : string;   (** ["auto"], ["hinted:N"], ["residual:R"],
                            ["timed-out"] or ["discharged"] *)
  vs_attempts : int;
  vs_time : float;
  vs_cached : bool;     (** replayed from cache or carried from baseline *)
}

type baseline = {
  vb_program : string;           (** baseline MiniSpark source *)
  vb_results : vc_summary list;  (** its per-VC outcomes *)
}

val parse_status : string -> vc_status option
(** Inverse of [vs_status] for every status a baseline may replay:
    ["timed-out"] and malformed strings give [None], because a timeout is
    a wall-clock accident, not a property of the VC. *)

val summarize : vc_result -> vc_summary
(** A report's results summarized this way are a {!baseline}'s
    [vb_results]. *)

val pp_report : report Fmt.t
(** Counts, automation fraction, cache and carry traffic, and the reason
    when VC generation was infeasible. *)

val pp_details : report Fmt.t
