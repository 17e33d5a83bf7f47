(** Automatic discharger for verification conditions — the stand-in for the
    SPARK proof checker, with the paper's "straightforward manual
    interventions" modelled as explicit hint capabilities so automation can
    be measured. *)

type outcome =
  | Proved
  | Unknown of string  (** reason / residual goal *)
  | Timeout of float   (** the last level hit its deadline after this many seconds *)

(** Interactive steps (§6.2.3): each hint enables one prover capability. *)
type hint =
  | Hint_induction
      (** split the last index off quantified goals and case-split
          unresolved stores — "induction on loop invariants" *)
  | Hint_apply_hyp
      (** instantiate quantified hypotheses at the indices of the goal's
          reads of the arrays they constrain — "application of
          preconditions" *)
  | Hint_unfold of string * string list * Formula.t
      (** function name, formals, defining body: definitional rewriting *)

type config = {
  interp : (string -> int list -> int option) option;
      (** evaluate a program function on ground integer arguments *)
  max_split : int;    (** widest range eligible for case splitting *)
  max_steps : int;    (** proof-search budget *)
  deadline_s : float option;
      (** wall-clock budget of each capability level: the search loop
          checks a monotonic clock ({!Clock.now}) and gives up on the
          level once it is exceeded *)
}

val default_config : config

val standard_hints : hint list
(** The paper's two interactive steps as one ladder: application of
    preconditions, then induction on loop invariants. *)

val eval_ground : config -> Formula.t -> int option
(** Ground integer evaluation (consults [interp] for program functions). *)

val eval_ground_bool : config -> Formula.t -> bool option

type proof_result = {
  pr_vc : Formula.vc;
  pr_outcome : outcome;
  pr_hints_used : int;   (** 0 = fully automatic *)
  pr_levels : int;       (** capability levels searched, >= 1 *)
  pr_time : float;       (** seconds on the monotonic clock, never negative *)
  pr_steps : int;        (** search steps spent across all capability levels *)
}

val prove_vc : ?cfg:config -> ?hints:hint list -> Formula.vc -> proof_result
(** The one proof ladder.  Try automatically first; each listed hint then
    enables one more capability, so [pr_hints_used] counts the
    interactive steps a VC needed and [pr_levels] the levels searched.
    Every level gets its own [cfg.deadline_s]; a level that runs out
    moves on to the next, and the outcome is {!Timeout} only when the
    last level ran out.  An exception raised inside the search (e.g. by
    [cfg.interp]) propagates. *)

val is_proved : proof_result -> bool

val memo_stats : unit -> (string * Memo.stats) list
(** Hits, misses and evictions of the calling domain's two node-keyed
    memos, by counter prefix: [prover_atom_memo] (printed Fourier–Motzkin
    atom keys) and [prover_constraints_memo] (linear constraints of a
    comparison).  Both hold at most 65,536 entries; they memoize pure
    functions, so an eviction costs a recomputation, never an outcome. *)

val pp_outcome : outcome Fmt.t
