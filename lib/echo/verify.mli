(** One verification job, as a service sees it: MiniSpark source text in,
    a serializable outcome out.

    This is the per-job entry point behind [echo-verify serve]: the same
    parse → typecheck → (optional) flow analysis → implementation proof
    spine the orchestrator drives for a case study, but scoped to a
    single annotated program, never raising, and returning per-VC
    summaries that are cheap to ship over a wire and sufficient to seed
    the next job's incremental carry.

    Incrementality: a job may carry a {!baseline} — the source and per-VC
    outcomes of a previously verified version of the program.  The job
    then re-proves only the impact set ({!Analysis.Impact}: semantic
    diff, dependency-graph escalation, VC-digest drift) and replays every
    other baseline verdict.  The planner ({!plan_carry}) is the one
    [aes verify --incremental] uses too; the orchestrator feeds it the
    baseline run's checkpointed proof report through {!summarize}.  A baseline that fails to parse or check degrades
    to a full re-prove with a note — never a fault. *)

type vc_summary = {
  vs_name : string;     (** e.g. ["fletcher.3"] *)
  vs_sub : string;      (** owning subprogram *)
  vs_digest : string;   (** {!Logic.Formula.vc_digest} of the formula *)
  vs_status : string;   (** ["auto"], ["hinted:N"], ["residual:R"],
                            ["timed-out"], ["discharged"] *)
  vs_attempts : int;
  vs_time : float;
  vs_cached : bool;     (** replayed from cache or carried from baseline *)
}

type baseline = {
  vb_program : string;           (** baseline MiniSpark source *)
  vb_results : vc_summary list;  (** its per-VC outcomes *)
}

type options = {
  vo_analyze : bool;              (** flow-analysis pre-pass + interval
                                      discharge of exception-freedom VCs *)
  vo_jobs : int;                  (** farm width for the proof *)
  vo_cache : Farm.Cache.t option; (** persistent proof cache (refreshed
                                      before, saved after, by the proof) *)
  vo_baseline : baseline option;
  vo_deadline_s : float option;   (** whole-job wall-clock budget *)
  vo_max_steps : int;             (** prover fuel per attempt *)
}

val default_options : options
(** No analysis, inline proof ([vo_jobs = 1]), no cache, no baseline, no
    deadline, the orchestrator's default prover fuel. *)

type verdict =
  | Verified                  (** every VC auto, hinted or discharged *)
  | Conditional of int        (** n residual VCs await interactive proof *)
  | Degraded of int           (** n VCs hit their wall-clock deadline *)
  | Failed of Fault.t         (** parse/type/analysis/VC-generation fault *)

type outcome = {
  vj_verdict : verdict;
  vj_total : int;
  vj_auto : int;
  vj_hinted : int;
  vj_residual : int;
  vj_timed_out : int;
  vj_discharged : int;
  vj_carried : int;       (** baseline verdicts replayed, never re-proved *)
  vj_cache_hits : int;
  vj_cache_misses : int;
  vj_attempts : int;
  vj_impacted_subs : int; (** re-prove set size under a baseline; 0 without *)
  vj_results : vc_summary list;  (** generation order *)
  vj_notes : string list;        (** non-fatal events, e.g. unusable baseline *)
  vj_seconds : float;
}

val verdict_string : verdict -> string
(** ["verified"], ["conditional"], ["degraded"] or ["failed"]. *)

val status_of_string : string -> string option
(** Validate a {!vc_summary} status string (returns it back, or [None]).
    Wire-facing callers use this to reject malformed baselines early. *)

val summarize : Implementation_proof.vc_result -> vc_summary
(** The wire form of one proof result.  A report's results summarized
    this way are a {!baseline}'s [vb_results]. *)

val analysis_gate : Analysis.Examiner.t -> unit
(** The flow-analysis gate of every driver: count the analysis's
    diagnostics as [an_diagnostics] when telemetry is on, and raise
    {!Fault.Fault} ([Fault.Analysis], first error rendered) when any
    diagnostic is an error. *)

type carry_plan = {
  cp_plan : Analysis.Impact.plan;  (** refined by VC-digest drift *)
  cp_carried_vcs : int;            (** baseline verdicts in the carry table *)
  cp_carry : Logic.Formula.vc -> Implementation_proof.vc_result option;
      (** the baseline verdict of a VC whose subprogram is carried and
          whose owner, name and formula digest all match *)
}

val plan_carry :
  ?budget:Vcgen.budget ->
  note:(string -> unit) ->
  Minispark.Typecheck.env ->
  Minispark.Ast.program ->
  baseline ->
  carry_plan option
(** Plan the incremental carry of [baseline] onto the checked program:
    semantic diff and dependency-graph escalation ({!Analysis.Impact}),
    then escalation of every subprogram whose VC digests (generated under
    [budget]) drifted.  Timed-out verdicts are never carried.  Reports the
    plan through [note]; a baseline whose source does not parse or check
    yields [None] and a note. *)

type stage_hook = stage:string -> [ `Start | `Ok of float | `Failed of string ] -> unit
(** Progress callback: stages are ["parse"], ["analyze"], ["impact"] and
    ["prove"], each reported at entry and at exit with its seconds or its
    fault. *)

val run : ?options:options -> ?on_stage:stage_hook -> source:string -> unit -> outcome
(** Verify one annotated program.  Never raises: every failure folds into
    [Failed] via {!Fault.guard}, and the stage hook is never allowed to
    kill the job (its exceptions are swallowed). *)
