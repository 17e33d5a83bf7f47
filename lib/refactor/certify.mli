(** Per-step certification of refactoring transformations.

    Each applied transformation must carry machine-checked evidence that
    it preserved semantics.  Per touched subprogram the decision
    procedure tries, in order: annotation-only identity; static
    equivalence VCs ({!Vcgen.equivalence_sub}) discharged on the proof
    farm through the content-addressed cache; a QCheck-driven
    differential fuzzing oracle with fuel-bounded interpretation
    (divergence is a counterexample, not a hang); and differential
    execution of the configured entry points as a last resort.  The
    result is a {!certificate}: [Certified] with per-target evidence,
    [Refuted] with a concrete counterexample, or [Unknown]. *)

open Minispark

type counterexample = {
  cx_sub : string;       (** subprogram (or entry point) that disagreed *)
  cx_inputs : string;    (** concrete input values *)
  cx_before : string;    (** original's result *)
  cx_after : string;     (** refactored result *)
}

val counterexample_to_string : counterexample -> string

(** How a target was certified. *)
type method_ =
  | M_identical
      (** versions differ only in annotations, which are not executed *)
  | M_vc of int  (** this many equivalence VCs discharged on the farm *)
  | M_oracle of { trials : int; exhaustive : bool }
      (** differential oracle agreement; [exhaustive] = every point of a
          small input domain was checked (a decision, not a test) *)
  | M_entries of { trials : int }
      (** locally unsampleable; behaviour preserved through the
          configured entry points *)

val method_to_string : method_ -> string

type certificate =
  | Certified of (string * method_) list  (** per-target evidence *)
  | Refuted of counterexample
  | Unknown of string

val describe : certificate -> string

exception Refutation of { rf_step : string; rf_cx : counterexample }
(** Raised by {!History.apply} when certification refutes a step — the
    pipeline maps it to its own fault class and exit code. *)

type config = {
  cf_seed : int;
  cf_trials : int;        (** oracle trials per target *)
  cf_fuel : int;          (** interpreter step bound per oracle run *)
  cf_jobs : int;          (** proof-farm workers for VC discharge *)
  cf_cache : Farm.Cache.t option;
  cf_budget : Vcgen.budget;
  cf_entries : string list;
      (** behavioural entry points: certification targets when the
          program shape changed, fallback for unsampleable targets *)
}

val default_config : ?entries:string list -> unit -> config
(** Seed 42, 24 trials, 2M fuel, 1 job, no cache, default VC budget. *)

type stats = {
  ct_steps : int;
  ct_targets : int;
  ct_vcs_generated : int;
  ct_vcs_proved : int;
  ct_cache_hits : int;
  ct_cache_misses : int;
  ct_oracle_trials : int;
  ct_vc_seconds : float;
      (** wall seconds generating-and-discharging equivalence VCs —
          the part the proof cache can amortise *)
  ct_oracle_seconds : float;
      (** wall seconds in differential interpreter runs — memoized
          only within a process ({!Equivalence.runner}), never
          persisted, so a warm proof cache repays only [ct_vc_seconds] *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val certify :
  config ->
  step_name:string ->
  before:Typecheck.env * Ast.program ->
  after:Typecheck.env * Ast.program ->
  certificate * stats
(** Certify one applied transformation (both programs type-checked). *)

(** {1 Audits over a recorded history} *)

type audit = {
  au_steps : int;
  au_certified : int;
  au_refuted : int;
  au_unknown : int;
}

val audit : (int * string * certificate) list -> audit

val certificate_to_json : certificate -> Telemetry.Json.t
val stats_to_json : stats -> Telemetry.Json.t
