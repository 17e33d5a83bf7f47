(** Retry ladders for VC proof attempts.

    A ladder is an ordered list of rungs; each rung is one proof attempt
    with its own strategy (pre-simplification, hint capabilities, fuel
    multiplier).  The ladder escalates automatic → simplify-then-retry →
    hint-enabled, with configurable backoff between attempts, and every
    attempt is recorded so proof reports can show how hard each VC was. *)

module P := Logic.Prover

type rung = {
  rg_name : string;            (** e.g. "automatic", "simplify", "hinted" *)
  rg_hints : P.hint list;      (** capabilities enabled on this attempt *)
  rg_presimplify : bool;       (** re-run the simplifier on the VC first *)
  rg_fuel_factor : int;        (** multiplier on the base step budget *)
}

type policy = {
  pol_rungs : rung list;
  pol_backoff_s : float;       (** sleep between attempts (0 = none) *)
  pol_deadline_s : float option;  (** per-attempt wall-clock budget *)
}

val legacy_policy : P.hint list -> policy
(** The pre-orchestrator behaviour: one automatic attempt, then one
    attempt with the given hints.  No deadline, no backoff — used by
    {!Implementation_proof.run} so historical accounting is unchanged. *)

val default_policy : P.hint list -> policy
(** The resilient ladder: automatic, simplify-with-2x-fuel, hinted. *)

val with_deadline : float option -> policy -> policy

type attempt = {
  at_rung : string;
  at_outcome : P.outcome;
  at_time : float;       (** seconds spent inside the prover proper *)
  at_elapsed : float;    (** wall-clock for the whole rung, incl. pre-simplify *)
}

type result = {
  rt_result : P.proof_result;  (** the last (or first proving) attempt *)
  rt_attempts : attempt list;  (** in attempt order, length >= 1 *)
  rt_rung : rung option;       (** the rung that proved it, if any *)
}

val attempts : result -> int
val timed_out : result -> bool
(** True when the final attempt hit its deadline. *)

val ladder_elapsed : result -> float
(** Total wall-clock across every attempt on the ladder. *)

val prove : ?policy:policy -> cfg:P.config -> Logic.Formula.vc -> result
(** Climb the ladder until a rung proves the VC or rungs run out.  Never
    raises; a rung whose search dies with an exception is recorded as an
    [Unknown] attempt and the ladder continues. *)
