(** Structured fault taxonomy for the Echo toolchain.

    Every way a pipeline stage can fail is named here, so stage failures
    travel as [result] values instead of raw exceptions and the
    orchestrator can decide per fault class whether to retry, degrade, or
    abort.  The classes also fix the CLI exit codes (parse=2, type=3,
    not-applicable=4, proof-failure=5, flow-analysis=6,
    certification-refuted=7, service=8). *)

type t =
  | Parse of { msg : string; line : int; col : int }
      (** the program source does not parse *)
  | Type of string
      (** the program (typically after annotation) does not type-check *)
  | Refactor of string
      (** a transformation's mechanical applicability check rejected *)
  | Vc_infeasible of string
      (** VC generation exceeded its resource budget (§6.2.2) *)
  | Prover_timeout of { vc : string; elapsed : float }
      (** a VC's proof search hit its wall-clock deadline *)
  | Prover_stuck of { vc : string; reason : string }
      (** proof search exhausted its step/fuel budget without an answer *)
  | Lemma of { lemma : string; reason : string }
      (** an implication lemma failed to evaluate (not: evaluated false) *)
  | Deadline of { stage : string; budget : float }
      (** the orchestrator's global wall-clock budget ran out *)
  | Checkpoint of string
      (** a checkpoint could not be written or read back *)
  | Injected of string
      (** a chaos-harness probe (see {!Defects.Chaos}) *)
  | Crash of string
      (** any other exception, captured with its backtrace summary *)
  | Analysis of { errors : int; first : string }
      (** flow analysis reported error-severity diagnostics (the Examiner
          refuses the program before any proof is attempted) *)
  | Certification of { cert_step : string; cert_reason : string }
      (** per-step certification ({!Refactor.Certify}) refuted a
          refactoring step with a concrete counterexample *)
  | Service of { srv_op : string; srv_reason : string }
      (** the verification service ({i Serve.Daemon}) could not honour a
          request: malformed submission, queue overflow, a worker process
          that crashed past its retry budget, or a dead daemon socket *)

exception Fault of t
(** Carrier for typed faults across code that still raises (the chaos
    probes use it); {!of_exn} maps it back to its payload. *)

val of_exn : exn -> t
(** Classify an exception: parser, typechecker, refactoring, certification
    and VC-budget exceptions map to their classes; a specification that
    fails to evaluate or to extract is a [Lemma] fault (lemma
    ["<evaluation>"] or ["<extraction>"]); [Fault] unwraps, anything else
    is [Crash]. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a stage body, converting any escaping exception via {!of_exn}.
    [Stack_overflow] and [Out_of_memory] are treated as [Crash] (the
    orchestrator survives runaway searches); [Sys.Break] is re-raised. *)

val class_name : t -> string
(** Short stable identifier: ["parse"], ["type"], ["refactor"], ... *)

val describe : t -> string

val exit_code : t -> int
(** CLI exit code for the fault class: parse=2, type=3, not-applicable=4,
    everything proof-related (infeasible VCs, timeouts, stuck searches,
    failed lemmas, blown deadlines)=5, flow-analysis errors=6, refuted
    certification=7, service errors=8, checkpoint/crash/injected=1. *)

val is_transient : t -> bool
(** Faults worth retrying with a bigger budget (timeouts, stuck searches,
    blown deadlines) as opposed to deterministic rejections. *)

val pp : t Fmt.t
