(** Formula simplifier — the stand-in for the SPARK Simplifier.

    Constant folding, boolean/comparison reduction, canonical linear forms,
    McCarthy select/store reduction, xor-chain cancellation, and bounded
    quantifier expansion.  Fig. 2(e)'s "simplified VC size" is defined by
    this module's output. *)

(** Canonical linear forms over opaque atoms. *)
module Lin : sig
  type t = { const : int; atoms : (Formula.t * int) list }
end

val difference : Formula.t -> Formula.t -> Lin.t option
(** Canonical [a - b], when both sides are numeric. *)

val flatten_chain : Formula.op -> Formula.t -> Formula.t list
(** Operands of a nested chain of one associative operator. *)

val wrap_int : int -> int -> int
(** [wrap_int m n] reduces [n] into [0, m) ([n] itself when [m <= 0]). *)

val simplify : Formula.t -> Formula.t
(** Bottom-up rewriting to a bounded fixpoint.  Memoized per domain on
    node identity (terms are hash-consed), so re-simplifying a term the
    domain has already processed is O(1). *)

val simplify_nomemo : Formula.t -> Formula.t
(** The raw fixpoint without the memo table — what {!simplify} computes
    on a cold entry.  Kept for differential testing. *)

val memo_stats : unit -> Memo.stats
(** Counters of the calling domain's {!simplify} memo. *)

val rewrite_passes : unit -> int
(** Cumulative count of productive rewrite passes since process start
    (monotone).  Profilers read deltas around an operation to attribute
    simplifier effort to it. *)

val simplify_vc : Formula.vc -> Formula.vc
(** Simplify hypotheses (flattening conjunctions, dropping trivial ones)
    and goal; a contradictory hypothesis set yields a [true] goal. *)
