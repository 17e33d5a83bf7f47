(** Resilient orchestration of the Echo pipeline.

    This module is the one driver of the Echo stages.  {!run} drives a
    {!Pipeline.case_study} through all of them — refactor, certify?,
    annotate, analyze?, impact?, implementation proof, reverse synthesis,
    implication proof; [run] with {!default_config} is the one-call API.
    {!run_job} drives one served job — MiniSpark source text — through
    the same stage runner: annotate (parse and typecheck the source),
    analyze?, impact?, implementation proof, with no run directory and no
    checkpoints.  Both go under one explicit resource-and-recovery policy
    and one verdict rule:

    - every stage body runs under {!Fault.guard}, so no failure escapes as
      an exception: a run always returns a verdict;
    - per-VC wall-clock deadlines and a global pipeline deadline, enforced
      on the monotonic clock ({!Logic.Clock});
    - one capability ladder per VC ({!Logic.Prover.prove_vc}: automatic,
      then each hint) with the levels searched recorded in the proof
      report;
    - stage checkpointing ({!Checkpoint}) into a run directory, and
      {!resume} to continue an interrupted or partially-failed run from
      the last good stage;
    - graceful degradation: timed-out or infeasible VCs and late-stage
      faults produce a [Degraded] verdict carrying the surviving results
      instead of aborting the run;
    - change-impact planning is an optimisation, not a gate: an unusable
      baseline, or a fault while planning, becomes a note and a full
      re-prove, never a failed run. *)

(** Instrumentation/chaos hook points (identity by default).  [h_stage]
    runs at stage entry and may raise — a raised {!Fault.Fault} is how the
    chaos harness injects stage failures. *)
type hooks = {
  h_stage : Checkpoint.stage -> unit;
  h_vcs : Logic.Formula.vc list -> Logic.Formula.vc list;
  h_lemmas : Implication.lemma list -> Implication.lemma list;
}

val no_hooks : hooks

(** Where the persistent proof cache lives.  [Cache_default] puts it in
    [<run-dir>/proof-cache] when a run directory is configured (so a
    [--resume] run inherits the interrupted run's proofs) and disables it
    otherwise; [Cache_dir] pins an explicit directory shared across runs;
    [Cache_off] never consults or writes a cache. *)
type cache_mode =
  | Cache_default
  | Cache_dir of string
  | Cache_off

type config = {
  oc_run_dir : string option;        (** checkpoint directory; [None] = no checkpoints *)
  oc_global_deadline_s : float option;
      (** whole-run wall-clock budget, checked at every stage entry and
          before every VC *)
  oc_vc_deadline_s : float option;   (** wall-clock budget per capability level of a VC *)
  oc_max_steps : int;                (** prover fuel per capability level *)
  oc_analyze : bool;
      (** insert the {!Analysis.Examiner} pre-pass between annotation and
          the implementation proof; error diagnostics fail the run
          ({!Fault.Analysis}) and interval analysis pre-discharges
          exception-freedom VCs so the ladder never schedules them *)
  oc_certify : bool;
      (** certify every refactoring step ({!Refactor.Certify}): closure
          identity, checked transformation schemes and the differential
          fuzzing oracle.  A refuted step fails the run
          ({!Fault.Certification}, exit code 7); steps left [Unknown]
          degrade the verdict.  The certificates ride on the refactor
          checkpoint, and the certify stage's audit is checkpointed too *)
  oc_jobs : int;
      (** proof-farm width for the implementation proof, certification
          ({!Refactor.History.run_certified}) and the implication lemmas:
          number of domains dispatching jobs cost-descending with work
          stealing; [1] (the default) runs inline.  Verdicts are
          identical for any value *)
  oc_cache : cache_mode;  (** persistent proof-cache placement *)
  oc_baseline : string option;
      (** incremental mode: a previous run's directory.  The refactor,
          certify and annotate checkpoints are loaded from there instead
          of recomputed, the annotated program's outline is diffed against
          the baseline's ({!Analysis.Semdiff}; the annotate stage checks
          the baseline source once and outlines it), and only the impacted VCs
          ({!Analysis.Impact}) are re-proved — every other VC's baseline
          verdict is carried over, planned as for a served job's
          baseline.  Under [Cache_default] the baseline's
          proof cache is shared.  A missing or unreadable baseline piece
          degrades to a full re-prove with a note, never a fault *)
  oc_edit : (Minispark.Ast.program -> Minispark.Ast.program) option;
      (** incremental mode: the edit under analysis, applied to the
          baseline's annotated program before re-verification (stands in
          for the user editing the source between runs) *)
  oc_carry : bool;
      (** incremental mode: when [false], the impact plan is computed and
          audited but every VC is still re-proved — the reference
          configuration incremental verdicts are validated against *)
  oc_hooks : hooks;
}

val default_config : config

type stage_status =
  | St_ok of { st_time : float; st_from_checkpoint : bool }
  | St_failed of Fault.t
  | St_skipped           (** never reached because an earlier stage failed *)

type degradation = {
  dg_stage : string;         (** where resilience absorbed the fault *)
  dg_fault : Fault.t;        (** representative fault *)
  dg_residual : int;
  dg_timed_out : int;
  dg_lemmas_failed : int;
}

type verdict =
  | Verified
  | Conditionally_verified of int
  | Degraded of degradation
  | Failed of Fault.t

type report = {
  o_case : string;
  o_stages : (Checkpoint.stage * stage_status) list;  (** pipeline order *)
  o_refactor_steps : int;
  o_analysis : Analysis.Examiner.t option;  (** when [oc_analyze] *)
  o_certify : Refactor.Certify.audit option;  (** when [oc_certify] *)
  o_impact : Checkpoint.impact_audit option;  (** when [oc_baseline] *)
  o_impl : Implementation_proof.report option;
  o_results : Implementation_proof.vc_summary list;
      (** [o_impl]'s results summarized in order, with the digests the
          proof already took ({!Implementation_proof.run_summarized}) *)
  o_outline : Analysis.Semdiff.outline option;
      (** the annotated program's outline, once taken: always for
          {!run_job} past annotation, for {!run} only when an impact
          stage ran — what a later job needs to plan against this one *)
  o_match : Specl.Match_ratio.result option;
  o_lemmas : (string * bool * string) list;  (** name, holds?, method/reason *)
  o_notes : string list;     (** non-fatal events, e.g. checkpoint trouble *)
  o_verdict : verdict;
  o_attempts : int;          (** capability levels searched across all VCs *)
  o_time : float;
}

type progress = Checkpoint.stage -> [ `Start | `Ok of float | `Failed of string ] -> unit
(** Stage progress: each stage that runs is reported at entry and at exit
    with its seconds or its fault.  Exceptions it raises are swallowed. *)

val analysis_gate : Analysis.Examiner.t -> unit
(** The flow-analysis gate of every run: count the analysis's
    diagnostics as [an_diagnostics] when telemetry is on, and raise
    {!Fault.Fault} ([Fault.Analysis], first error rendered) when any
    diagnostic is an error. *)

val run : ?resume:bool -> ?config:config -> Pipeline.case_study -> report
(** Drive the pipeline under the policy.  Never raises.  With a run
    directory configured, each completed stage is checkpointed; a fresh
    run ([resume = false], the default) clears stale checkpoints first. *)

val resume : ?config:config -> Pipeline.case_study -> report
(** [run ~resume:true]: stages with a valid checkpoint are loaded instead
    of recomputed (their status says so); execution continues from the
    first missing or corrupt checkpoint.  A checkpointed clean run resumed
    this way reproduces its verdict bit-for-bit without re-proving. *)

val run_job :
  ?config:config ->
  ?on_stage:progress ->
  ?cache:Farm.Cache.t ->
  ?baseline:Implementation_proof.baseline ->
  source:string ->
  unit ->
  report
(** Verify one annotated program given as source text: annotate (parse
    and typecheck [source]) → analyze? → impact? → implementation proof,
    under the same stage runner, verdict rule and fault rule as {!run}.
    Never raises.  [cache] is the caller's open proof cache; [baseline],
    when given, is an outline and per-VC summaries — no source is parsed
    for it — planned against ({!Analysis.Impact}), and its still-valid
    verdicts carried.  The report's [o_outline] and [o_results] are what
    a later job's baseline is made of.  Of [config], the run directory, certification,
    cache placement, baseline directory and edit belong to case studies
    and are ignored; the deadlines, fuel, analysis, farm width, carry
    switch and hooks apply. *)

val pp_verdict : verdict Fmt.t
val pp_report : report Fmt.t
