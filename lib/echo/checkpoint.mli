(** Stage checkpointing for orchestrated pipeline runs.

    Each pipeline stage's output is serialized into a run directory as
    soon as the stage completes, so an interrupted or partially-failed run
    can resume from the last good stage ({!Orchestrator.resume}) instead
    of recomputing hours of refactoring and proof search.

    Programs are stored as pretty-printed MiniSpark source (reparsed on
    resume — robust across binaries); closed data (proof reports, the
    extracted theory) is stored with [Marshal] behind a version/case
    header so a stale or foreign file is rejected, never misread. *)

type stage =
  | S_refactor
  | S_certify
  | S_annotate
  | S_analyze
  | S_impact   (** change-impact planning, incremental runs only *)
  | S_impl
  | S_extract
  | S_implication

val all_stages : stage list
(** In pipeline order. *)

val stage_name : stage -> string
val stage_index : stage -> int

(** The change-impact audit persisted by incremental runs: what the
    semantic diff found, which subprograms re-prove and why, and which
    baseline verdicts were carried over. *)
type impact_audit = {
  im_changed : string list;
  im_impacted : (string * string list) list;  (** name, re-prove reasons *)
  im_carried : string list;
  im_carried_vcs : int;   (** baseline VC verdicts scheduled for carry *)
  im_json : string;
      (** the full {!Analysis.Impact} plan as JSON; only the checkpoint
          reads it, so a run with no run directory leaves it empty *)
}

(** What each stage persists.  Programs travel as source text; everything
    else is closed (closure-free) data.  The format version is v4: the
    impact stage exists (stage indices shifted) and persists its audit,
    and the proof report carries [ip_carried] — v3 files are rejected by
    the header check and recomputed, never misread. *)
type payload =
  | P_refactor of {
      pr_final_src : string;
      pr_steps : int;
      pr_summary : string;
      pr_certificates : (int * string * Refactor.Certify.certificate) list;
          (** step index, transformation name, certificate; empty when the
              run was not certified *)
    }
  | P_certify of {
      pc_audit : Refactor.Certify.audit;
      pc_stats : Refactor.Certify.stats;
    }
  | P_annotate of { pa_src : string }
  | P_analyze of Analysis.Examiner.t
  | P_impact of impact_audit
  | P_impl of Implementation_proof.report
  | P_extract of { px_theory : Specl.Sast.theory; px_match : Specl.Match_ratio.result }
  | P_implication of { pi_lemmas : (string * bool * string) list }
      (** lemma name, holds?, method/reason *)

val save : dir:string -> case:string -> stage -> payload -> (unit, string) result
(** Write the stage file (creating [dir] as needed), atomically via a
    temp file + rename. *)

val load : dir:string -> case:string -> stage -> (payload, string) result option
(** [None] — no checkpoint for this stage; [Some (Error _)] — a file is
    present but has the wrong version/case or does not unmarshal; the
    caller decides whether that is fatal. *)

val save_telemetry : dir:string -> (unit, string) result
(** Persist the collector's current events (as [telemetry.events.jsonl])
    and metrics snapshot (as [telemetry.metrics.json]) into the run
    directory.  A no-op returning [Ok ()] when telemetry is disabled. *)

val load_telemetry : dir:string -> (Telemetry.event list, string) result option
(** Events persisted by a previous run of this directory, if any.
    Feed them to {!Telemetry.ingest} before resuming so the final trace
    covers the whole logical run, not just the resumed tail. *)

val clear : dir:string -> unit
(** Remove all checkpoint and telemetry files in [dir] (ignores other
    files). *)
