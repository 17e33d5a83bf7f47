(** Verification-condition generation for MiniSpark — the stand-in for the
    SPARK Examiner.

    Forward symbolic execution between cut points produces postcondition,
    call-precondition, loop-invariant, assert, and exception-freedom VCs.
    Resource accounting reproduces the paper's §6.2.2 observation that
    optimized (unrolled, packed) code makes VC generation explode: term
    sizes are tracked as unfolded node counts and generation aborts with
    {!Infeasible} past a budget — the analogue of the SPARK tools running
    out of memory. *)

open Minispark

exception Infeasible of string

type budget = {
  max_vc_nodes : int;      (** per-VC unfolded node cap *)
  max_total_nodes : int;   (** whole-program cap *)
  max_paths : int;         (** per-subprogram symbolic path cap *)
}

val default_budget : budget

type sub_report = {
  sr_sub : string;
  sr_vcs : Logic.Formula.vc list;
  sr_sizes : (string * int) list;  (** per-VC unfolded node counts *)
  sr_digests : string list;
      (** {!Logic.Formula.vc_digest} of each VC of [sr_vcs], in order —
          taken once at generation and memoized with the report, so a
          carried subprogram's digests cost nothing on later jobs *)
  sr_discharged : string list;
      (** names of VCs statically discharged by analysis; empty until
          {!tag_discharged} is applied *)
}

val generate_sub :
  ?budget:budget -> Typecheck.env -> Ast.program -> Ast.subprogram -> sub_report
(** @raise Infeasible when the budget is exceeded. *)

type report = {
  r_subs : sub_report list;
  r_infeasible : string option;
      (** the first budget a subprogram exceeded, or why generation
          stopped, mirroring the paper's "no value because the VCs were
          too complicated" columns *)
}

val generate : ?budget:budget -> Typecheck.env -> Ast.program -> report
(** Generate VCs for every subprogram.  A subprogram over its path or
    per-VC budget gets no VCs, the first such reason is recorded in
    [r_infeasible], and generation goes on with the others; only the
    whole-program cap stops it, keeping the subprograms analysed so far.
    [env] must be the program's own environment.

    Per-subprogram reports are memoized per domain on the budget's
    per-VC and path caps, the subprogram's name and the
    {!Share.closure_digest} of the subprogram and of every type, constant
    and global declaration; the whole-program cap is re-applied on a hit,
    so the report equals a run of {!generate_sub} over each subprogram
    under the remaining cap. *)

val memo_stats : unit -> Memo.stats
(** Counters of the calling domain's per-subprogram memo. *)

val all_vcs : report -> Logic.Formula.vc list

(** Mark every VC the oracle proves statically in its subprogram's
    [sr_discharged] list — the per-VC "discharged-by-analysis" tag.
    Formulas are untouched; proof schedulers skip the tagged names. *)
val tag_discharged :
  oracle:(Logic.Formula.vc -> bool) -> report -> report
val total_nodes : report -> int

val vc_digests : report -> (string * string list) list
(** Per-subprogram digests ({!Logic.Formula.vc_digest}) of the generated
    formulas, order-preserving ([sr_digests]); used to detect VC drift
    between two generation runs over different program versions. *)

val bytes_of_nodes : int -> int
(** Approximate printed bytes of an unfolded term tree (~8 per node). *)

val max_vc_lines : report -> int
(** Printed-line length of the longest VC (the paper's "maximum length of
    verification conditions" metric). *)
