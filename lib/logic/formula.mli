(** First-order terms and formulas for verification conditions.

    The language mirrors what weakest-precondition generation over
    MiniSpark needs: linear integer arithmetic, modular (wrapping)
    arithmetic and bit operations carrying their modulus, McCarthy array
    select/store, bounded quantifiers, and uninterpreted occurrences of
    program functions.

    Terms are hash-consed per domain ({!Hc}): every structurally
    distinct term is interned once, so within a domain physical equality
    is semantic equality, and each node carries its hash, size, free
    variables and store flag as O(1) cached attributes.  Terms are built exclusively
    through the smart constructors below and inspected by matching on
    the [node] field. *)

type t = private {
  tag : int;            (** per-domain identity, unique for the process *)
  hash : int;           (** structural hash, stable across domains *)
  size : int;           (** unfolded tree node count *)
  node : node;
  fvs : string list;    (** free variables, sorted and deduplicated *)
  stores : bool;
      (** some subterm is an [App (Store, _)]; false means read-over-write
          resolution has nothing to rewrite *)
  mutable digest_memo : string;  (** "" until {!digest} first runs *)
  dom : int;            (** owning domain *)
}

and node =
  | Int of int
  | Bool of bool
  | Var of string
  | App of op * t list
  | Ite of t * t * t
  | Forall of string * t * t * t  (** var, lo, hi, body *)
  | Exists of string * t * t * t

and op =
  | Add | Sub | Mul | Div | Mod_op
  | Neg
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or | Not | Implies
  | Band of int | Bor of int | Bxor of int | Bnot of int
  | Shl of int | Shr of int
      (** int payload: the modulus of the left operand, 0 = unbounded *)
  | Wrap of int               (** reduce into [0, m) *)
  | Select | Store
  | Arrlit of int             (** array literal; payload = first index *)
  | Uf of string              (** program function symbol *)

(** {1 Smart constructors}

    Each returns the interned node for the calling domain; arguments
    interned by another domain are localized transparently. *)

val num : int -> t
val bool_ : bool -> t
val var : string -> t
val app : op -> t list -> t
val ite : t -> t -> t -> t
val forall : string -> t -> t -> t -> t
val exists : string -> t -> t -> t -> t

val tru : t
val fls : t

val conj : t list -> t
(** Right-nested conjunction; [conj [] = tru]. *)

val implies : t -> t -> t
(** Implication, collapsing a [true] antecedent. *)

val eq : t -> t -> t
val select : t -> t -> t
val store : t -> t -> t -> t

(** {1 Identity} *)

val equal : t -> t -> bool
(** Structural equality.  O(1) for two terms interned by the same
    domain (physical identity); cross-domain terms fall back to a
    hash-pruned structural walk.  Never use the polymorphic [=] on
    terms: it would compare interning tags. *)

val hash : t -> int

val compare : t -> t -> int
(** Deterministic structural order — the order the polymorphic
    [Stdlib.compare] gave on the pre-hash-consing representation, so
    every sort in the simplifier and prover keeps its historic result. *)

val localize : t -> t
(** Re-intern a term (and its subterms) in the calling domain's table.
    The identity on terms the domain already owns; memoized per source
    node otherwise. *)

(** {1 Traversal} *)

val map : (t -> t) -> t -> t
(** Bottom-up rewriting: children first, then the node itself.
    Subtrees the function leaves unchanged are returned as the original
    node, not reallocated. *)

val iter : (t -> unit) -> t -> unit
(** Preorder walk of the unfolded tree (shared subterms are visited once
    per occurrence, as they were before hash-consing). *)

val subst : string -> t -> t -> t
(** [subst x v t]: capture-naive substitution of a variable by a term
    (quantified variables shadow as expected).  Returns [t] itself when
    [x] is not free in [t]; memoized on node identity within a call, so
    shared subterms are rewritten once. *)

val free_vars : t -> string list
(** Free variable names, sorted and deduplicated.  O(1): cached. *)

val node_count : t -> int
(** Unfolded tree size.  O(1): cached. *)

(** {1 Printing}

    The printed form defines the byte-size metric for VCs (the paper
    reports VC sizes in MB/KB). *)

val op_name : op -> string
val pp : t Fmt.t
val to_string : t -> string

val byte_size : t -> int
(** Byte size of the printed form. *)

(** {1 Canonical serialization and content digests}

    The printed form is ambiguous ([Var "f()"] and [App (Uf "f", [])]
    render identically), so content addressing uses an injective binary
    encoding: [serialize a = serialize b] iff [a] and [b] are
    structurally equal. *)

val serialize : t -> string
(** Deterministic, injective encoding of the term (byte-identical to
    the pre-hash-consing encoding). *)

val digest : t -> string
(** Hex digest of {!serialize} — the content address of a formula.
    Computed once per node and cached. *)

(** {1 Interner statistics} *)

val live_nodes : unit -> int
(** Terms currently interned by the calling domain. *)

val interned_nodes : unit -> int
(** Total terms the calling domain has interned so far. *)

(** {1 Verification conditions} *)

type vc_kind =
  | Vc_postcondition
  | Vc_precondition_call   (** callee precondition holds at a call site *)
  | Vc_assert
  | Vc_invariant_init
  | Vc_invariant_preserve
  | Vc_index_check
  | Vc_range_check
  | Vc_div_check
  | Vc_overflow_check
  | Vc_equivalence
      (** old fragment = new fragment of a certified refactoring step *)

val vc_kind_name : vc_kind -> string

type vc = {
  vc_name : string;        (** e.g. "encrypt.3" *)
  vc_sub : string;         (** owning subprogram *)
  vc_kind : vc_kind;
  vc_hyps : t list;
  vc_goal : t;
}

val vc_formula : vc -> t
(** The VC as one closed formula: hypotheses imply goal. *)

val vc_byte_size : vc -> int

val vc_digest : vc -> string
(** Content address of a VC's proof inputs: the hypothesis list (order
    preserved — it matters to the search) and the goal.  The name,
    subprogram and kind are labels and excluded, so a renamed but
    otherwise unchanged VC keeps its digest.  Composed from the cached
    per-term digests, so the encoding differs from the pre-hash-consing
    one — the proof-cache format version is bumped in step. *)

val localize_vc : vc -> vc
(** {!localize} applied to every hypothesis and the goal. *)

val vc_line_count : vc -> int
(** Printed lines of one VC — the paper's "maximum length of verification
    conditions" metric (>10,000 lines at block 1, 68 at block 14, 126
    with full annotations). *)
