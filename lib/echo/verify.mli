(** One verification job, as a service sees it: MiniSpark source text in,
    a serializable outcome out.

    This is the per-job entry point behind [echo-verify serve].  It is a
    configuration of the orchestrator, not a second driver:
    {!Orchestrator.run_job} runs the job through the same stage runner,
    verdict rule and fault rule as a case study — annotate (parse and
    typecheck), analyze?, impact?, implementation proof — and [run] maps
    its report onto an {!outcome}: per-VC summaries that are cheap to ship
    over a wire and sufficient to seed the next job's incremental carry.

    Incrementality: a job may carry a {!baseline} — the outline and
    per-VC outcomes of a previously verified version of the program,
    never its source.  The job then re-proves only the impact set
    ({!Analysis.Impact}: semantic diff, dependency-graph escalation,
    VC-digest drift) and replays every other baseline verdict, planned
    exactly as [aes verify --incremental] plans against a baseline run.
    A fault while planning degrades to a full re-prove with a note —
    never a fault. *)

type vc_summary = Implementation_proof.vc_summary = {
  vs_name : string;     (** e.g. ["fletcher.3"] *)
  vs_sub : string;      (** owning subprogram *)
  vs_digest : string;   (** {!Logic.Formula.vc_digest} of the formula *)
  vs_status : string;   (** ["auto"], ["hinted:N"], ["residual:R"],
                            ["timed-out"], ["discharged"] *)
  vs_attempts : int;
  vs_time : float;
  vs_cached : bool;     (** replayed from cache or carried from baseline *)
}

type baseline = Implementation_proof.baseline = {
  vb_outline : Analysis.Semdiff.outline;
      (** the baseline program's outline ({!Analysis.Semdiff.outline}) *)
  vb_results : vc_summary list;  (** its per-VC outcomes *)
}

type options = {
  vo_analyze : bool;              (** flow-analysis pre-pass + interval
                                      discharge of exception-freedom VCs *)
  vo_jobs : int;                  (** farm width for the proof *)
  vo_cache : Farm.Cache.t option; (** persistent proof cache (refreshed
                                      before, saved after, by the proof) *)
  vo_baseline : baseline option;
  vo_deadline_s : float option;
      (** whole-job wall-clock budget: the run's global deadline, checked
          at every stage entry (an expired budget fails the job with
          {!Fault.Deadline}) and before every VC (the rest are charged as
          timed out, which degrades the job) *)
}

val default_options : options
(** No analysis, inline proof ([vo_jobs = 1]), no cache, no baseline, no
    deadline. *)

type verdict = Orchestrator.verdict =
  | Verified                    (** every VC auto, hinted or discharged *)
  | Conditionally_verified of int
      (** n residual VCs await interactive proof *)
  | Degraded of Orchestrator.degradation
      (** infeasible VC generation or VCs past their wall-clock deadline;
          the degradation carries the fault *)
  | Failed of Fault.t           (** parse/type/analysis/deadline fault *)

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
  vj_outline : Analysis.Semdiff.outline option;
      (** the checked program's outline; [None] when it did not parse or
          check.  With [vj_results], a later job's {!baseline} *)
  vj_notes : string list;        (** non-fatal events, e.g. unusable baseline *)
  vj_seconds : float;
}

val verdict_string : verdict -> string
(** ["verified"], ["conditional"], ["degraded"] or ["failed"]. *)

type stage_hook = stage:string -> [ `Start | `Ok of float | `Failed of string ] -> unit
(** Progress callback: stages are ["parse"] (the orchestrator's annotate
    stage), ["analyze"], ["impact"] and ["prove"] (its implementation
    proof), each reported at entry and at exit with its seconds or its
    fault. *)

val run : ?options:options -> ?on_stage:stage_hook -> source:string -> unit -> outcome
(** Verify one annotated program through {!Orchestrator.run_job}.  Never
    raises, and the stage hook is never allowed to kill the job (its
    exceptions are swallowed). *)
