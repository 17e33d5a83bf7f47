(** Per-step certification of refactoring transformations.

    Each applied transformation must carry machine-checked evidence that
    it preserved semantics.  Per touched subprogram the decision
    procedure tries, in order: annotation-only identity; closure identity
    ({!Equivalence.same_closure}); the step's own claim
    ({!Transform.claim}), checked against the step; the differential
    oracle {!Equivalence.oracle} with fuel-bounded interpretation
    (divergence is a counterexample, not a hang); and differential
    execution of the configured entry points as a last resort.  The
    result is a {!certificate}: [Certified] with per-target evidence,
    [Refuted] with a concrete counterexample, or [Unknown].

    Steps are certified in a {!session}: each step's whole decision is
    one job of a {!Farm.Pool}, submitted as the step arrives ({!add}), whose helper domains certify while the caller goes on
    (refactoring, typically); {!finish} joins the pool, so every step
    gets the certificate and stats it would get alone.
    {!certify_steps} is a session fed every step up front. *)

open Minispark

type counterexample = Equivalence.counterexample = {
  cx_sub : string;       (** subprogram (or entry point) that disagreed *)
  cx_inputs : string;    (** concrete input values *)
  cx_before : string;    (** original's result *)
  cx_after : string;     (** refactored result *)
}

val counterexample_to_string : counterexample -> string

(** How a target was certified, written [identical], [closure],
    [scheme:<name>], [reused:oracle:N[:exhaustive]],
    [oracle:N[:exhaustive]] or [entries:N]. *)
type method_ =
  | M_identical
      (** versions differ only in annotations, which are not executed *)
  | M_closure
      (** everything a run of the target observes is the same in both
          versions, and both initialise ({!Equivalence.same_closure}) *)
  | M_scheme of string
      (** the step is an instance of this proved scheme, its
          side-conditions checked on the step
          ([reverse_table]: {!Table_reverse.check_scheme};
          [extraction]: {!Extraction.check_scheme}, for a split or a
          clone extraction; [renaming]: {!Storage_adjust.check_renaming});
          a scheme covers every target of its step *)
  | M_reused of { trials : int; exhaustive : bool }
      (** the transformation's own oracle agreement on exactly these two
          programs ({!Transform.Oracle_agreement}), with at least
          [cf_trials] trials under [cf_fuel] *)
  | M_oracle of { trials : int; exhaustive : bool }
      (** differential oracle agreement; [exhaustive] = every point of a
          small input domain was checked (a decision, not a test) *)
  | M_entries of { trials : int }
      (** locally unsampleable; behaviour preserved through the
          configured entry points *)

val decided : method_ -> bool
(** The strength of a certificate: [true] for a decision (identity,
    closure, scheme, an exhaustive oracle), [false] for
    sampled evidence. *)

type certificate =
  | Certified of (string * method_) list  (** per-target evidence *)
  | Refuted of counterexample
  | Unknown of string

val describe : certificate -> string

exception Refutation of { rf_step : string; rf_cx : counterexample }
(** Raised by {!History.run_certified} (and so {!History.apply}) when
    certification refutes a step — the pipeline maps it to its own fault
    class and exit code. *)

type config = {
  cf_seed : int;
  cf_trials : int;        (** oracle trials per target *)
  cf_fuel : int;          (** interpreter step bound per oracle run *)
  cf_jobs : int;
      (** farm width, one job per step; while steps are still
          arriving, [cf_jobs - 1] helper domains run them *)
  cf_entries : string list;
      (** behavioural entry points: certification targets when the
          program shape changed, fallback for unsampleable targets *)
}

val default_config : ?entries:string list -> unit -> config
(** Seed 42, 24 trials, 2M fuel, 1 job. *)

type stats = {
  ct_steps : int;
  ct_targets : int;
  ct_vcs_generated : int;
      (** always 0: kept for perfbench; removed with the next perfbench
          chore *)
  ct_oracle_trials : int;
      (** trials the oracle ran for this certification ([M_oracle],
          [M_entries]); a reused verdict's trials are not counted *)
  ct_decided : int;  (** certified targets with {!decided} evidence *)
  ct_sampled : int;  (** certified targets with sampled evidence *)
  ct_vc_seconds : float;
      (** always 0.0: kept for perfbench; removed with the next perfbench
          chore *)
  ct_oracle_seconds : float;
      (** wall seconds deciding the step: the diff, closure tests, claim
          checks and differential interpreter runs *)
}
(** [ct_oracle_seconds] is the wall time certification adds after the
    caller's own work, not busy time summed over farm domains: from
    {!finish}'s start, the jobs still queued or running take some wall
    time, and it is shared out over the steps in proportion to their busy
    seconds.  Work the helpers did while the caller was busy is not in
    it. *)

val zero_stats : stats
val add_stats : stats -> stats -> stats

type step = {
  sp_name : string;
  sp_before : Typecheck.env * Ast.program;  (** type-checked *)
  sp_after : Typecheck.env * Ast.program;   (** type-checked *)
  sp_claim : Transform.claim option;
      (** the transformation's claim about the step: checked against
          [sp_before] and [sp_after] on the farm, it certifies the
          targets it covers that closure identity does not *)
}

type session
(** A certification in progress. *)

val start : config -> session
(** Open a session: a {!Farm.Pool} at [cf_jobs], whose [cf_jobs - 1]
    helper domains start at once, under a [certify] span that does not
    nest the caller's later spans. *)

val add : session -> step -> unit
(** Submit one step to the pool as one job, at any width: the diff and
    its targets, then per target closure identity (entry-point targets
    only), the step's claim (checked at most once), the oracle and the
    entry-point fallback.  At width 1 nothing runs before {!finish}. *)

val finish : session -> (certificate * stats) list
(** Close the pool with the calling domain as a worker: one result per
    added step, in order.  Certificates, counterexamples and every count
    equal certification of the steps one at a time, whatever the width
    and however the steps split between the helpers and the tail; steps
    after a refuted one are certified too.  With telemetry on, the interpreter and
    {!Minispark.Share} memo events of every job and of the calling
    domain are published as [interp_memo_*] and [share_*_memo_*]
    counters. *)

val certify_steps : config -> step list -> (certificate * stats) list
(** A session fed every step, then finished. *)

val certify :
  config ->
  step_name:string ->
  before:Typecheck.env * Ast.program ->
  after:Typecheck.env * Ast.program ->
  certificate * stats
(** {!certify_steps} on one step without a claim. *)

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
