(* First-order terms and formulas for verification conditions.

   The language mirrors what weakest-precondition generation over MiniSpark
   needs: linear integer arithmetic, modular (wrapping) arithmetic and bit
   operations carrying their modulus, McCarthy array select/store, bounded
   quantifiers, and uninterpreted occurrences of program functions.

   Representation: hash-consed records.  Every structurally distinct term
   is interned once per domain (see hc.ml), so within a domain structural
   equality is physical equality, and each node carries cached attributes
   — hash, unfolded tree size, free variables, whether an array store
   occurs, and (lazily) the content digest.  [tag] is the per-domain identity; it is deliberately the
   first field so the polymorphic [=] (which must never be used on terms,
   but tests on single-domain data may) fails fast on distinct terms.

   Cross-domain discipline: [hash]/[size]/[fvs]/[stores] are computed structurally
   (never from tags), so they agree across domains; [tag]/[dom] do not.
   Smart constructors localize foreign children, and [equal]/[compare]
   fall back to a structural walk when the domains differ. *)

type t = {
  tag : int;
  hash : int;
  size : int;
  node : node;
  fvs : string list;
  stores : bool;
  mutable digest_memo : string;
  dom : int;
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
  | Shl of int | Shr of int   (** int payload: the modulus of the left operand, 0 = unbounded *)
  | Wrap of int               (** reduce into [0, m) *)
  | Select | Store
  | Arrlit of int             (** array literal; payload = first index *)
  | Uf of string              (** program function symbol *)

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Rebuild a list only if some element changed — callers rely on the
   physical-identity test to skip re-interning untouched spines. *)
let rec map_sharing f l =
  match l with
  | [] -> []
  | x :: xs ->
      let x' = f x in
      let xs' = map_sharing f xs in
      if x' == x && xs' == xs then l else x' :: xs'

(* Structural hash from the children's cached hashes, one mixing step
   per node.  Tags must not leak in: the hash has to agree for the same
   term interned by different domains. *)
let hash_node node =
  (match node with
  | Int n -> Hashtbl.hash (0, n)
  | Bool b -> Hashtbl.hash (1, b)
  | Var x -> Hashtbl.hash (2, x)
  | App (op, args) ->
      List.fold_left
        (fun acc a -> (acc * 131) + a.hash)
        (Hashtbl.hash (3, op))
        args
  | Ite (c, a, b) -> (((4 * 131) + c.hash) * 131 + a.hash) * 131 + b.hash
  | Forall (x, lo, hi, body) ->
      ((((Hashtbl.hash (5, x) * 131) + lo.hash) * 131 + hi.hash) * 131)
      + body.hash
  | Exists (x, lo, hi, body) ->
      ((((Hashtbl.hash (6, x) * 131) + lo.hash) * 131 + hi.hash) * 131)
      + body.hash)
  land max_int

let size_node = function
  | Int _ | Bool _ | Var _ -> 1
  | App (_, args) -> List.fold_left (fun acc a -> acc + a.size) 1 args
  | Ite (c, a, b) -> 1 + c.size + a.size + b.size
  | Forall (_, lo, hi, body) | Exists (_, lo, hi, body) ->
      1 + lo.size + hi.size + body.size

(* Free-variable sets are sorted-uniq string lists merged with maximal
   physical sharing (a node whose fvs equal a child's reuse that list). *)
let rec union_fvs a b =
  match (a, b) with
  | [], ys -> ys
  | xs, [] -> xs
  | x :: xs, y :: ys ->
      let c = String.compare x y in
      if c = 0 then
        let r = union_fvs xs ys in
        if r == xs then a else x :: r
      else if c < 0 then
        let r = union_fvs xs b in
        if r == xs then a else x :: r
      else
        let r = union_fvs a ys in
        if r == ys then b else y :: r

let rec remove_fv x l =
  match l with
  | [] -> []
  | y :: ys ->
      let c = String.compare y x in
      if c = 0 then ys
      else if c < 0 then
        let r = remove_fv x ys in
        if r == ys then l else y :: r
      else l

let rec mem_fv x = function
  | [] -> false
  | y :: ys ->
      let c = String.compare y x in
      if c < 0 then mem_fv x ys else c = 0

let fvs_node = function
  | Int _ | Bool _ -> []
  | Var x -> [ x ]
  | App (_, args) -> List.fold_left (fun acc a -> union_fvs acc a.fvs) [] args
  | Ite (c, a, b) -> union_fvs (union_fvs c.fvs a.fvs) b.fvs
  | Forall (x, lo, hi, body) | Exists (x, lo, hi, body) ->
      union_fvs (union_fvs lo.fvs hi.fvs) (remove_fv x body.fvs)

let stores_node = function
  | Int _ | Bool _ | Var _ -> false
  | App (Store, _) -> true
  | App (_, args) -> List.exists (fun a -> a.stores) args
  | Ite (c, a, b) -> c.stores || a.stores || b.stores
  | Forall (_, lo, hi, body) | Exists (_, lo, hi, body) ->
      lo.stores || hi.stores || body.stores

(* Shallow equality for the interning table: children are compared with
   [==], which is complete because they are localized and interned
   before a candidate node is built. *)
let shallow_equal n1 n2 =
  match (n1, n2) with
  | Int a, Int b -> a = b
  | Bool a, Bool b -> a = b
  | Var a, Var b -> String.equal a b
  | App (o1, a1), App (o2, a2) ->
      o1 = o2
      &&
      let rec eq l1 l2 =
        match (l1, l2) with
        | [], [] -> true
        | x :: xs, y :: ys -> x == y && eq xs ys
        | _ -> false
      in
      eq a1 a2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
  | Forall (x1, l1, h1, b1), Forall (x2, l2, h2, b2)
  | Exists (x1, l1, h1, b1), Exists (x2, l2, h2, b2) ->
      String.equal x1 x2 && l1 == l2 && h1 == h2 && b1 == b2
  | _ -> false

module Interner = Hc.Make (struct
  type nonrec t = t

  let equal a b = shallow_equal a.node b.node
  let hash t = t.hash
end)

(* Localization memo: (source domain, source tag) -> local node.  Tags
   are never reused, so stale entries can only waste space, never alias;
   the cap bounds that waste. *)
let localize_cap = 1 lsl 17

let localize_memo : (int * int, t) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create localize_cap)

let rec mk node =
  let it = Interner.interner () in
  let my = Interner.domain_id it in
  let node =
    match node with
    | Int _ | Bool _ | Var _ -> node
    | App (op, args) ->
        let args' = map_sharing (localize_to my) args in
        if args' == args then node else App (op, args')
    | Ite (c, a, b) ->
        let c' = localize_to my c
        and a' = localize_to my a
        and b' = localize_to my b in
        if c' == c && a' == a && b' == b then node else Ite (c', a', b')
    | Forall (x, lo, hi, body) ->
        let lo' = localize_to my lo
        and hi' = localize_to my hi
        and body' = localize_to my body in
        if lo' == lo && hi' == hi && body' == body then node
        else Forall (x, lo', hi', body')
    | Exists (x, lo, hi, body) ->
        let lo' = localize_to my lo
        and hi' = localize_to my hi
        and body' = localize_to my body in
        if lo' == lo && hi' == hi && body' == body then node
        else Exists (x, lo', hi', body')
  in
  let h = hash_node node in
  let probe =
    { tag = -1; hash = h; size = 0; node; fvs = []; stores = false;
      digest_memo = ""; dom = my }
  in
  Interner.find_or_add it ~probe ~build:(fun () ->
      {
        tag = Interner.fresh_tag it;
        hash = h;
        size = size_node node;
        node;
        fvs = fvs_node node;
        stores = stores_node node;
        digest_memo = "";
        dom = my;
      })

and localize_to my t =
  if t.dom = my then t
  else Memo.find (Domain.DLS.get localize_memo) (t.dom, t.tag) (fun () -> mk t.node)

let localize t =
  let it = Interner.interner () in
  localize_to (Interner.domain_id it) t

let live_nodes () = Interner.population (Interner.interner ())
let interned_nodes () = Interner.interns (Interner.interner ())

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let num n = mk (Int n)
let bool_ b = mk (Bool b)
let var x = mk (Var x)
let app op args = mk (App (op, args))
let ite c a b = mk (Ite (c, a, b))
let forall x lo hi body = mk (Forall (x, lo, hi, body))
let exists x lo hi body = mk (Exists (x, lo, hi, body))

(* Interned on the loading domain; other domains localize on use. *)
let tru = bool_ true
let fls = bool_ false

let rec conj = function
  | [] -> tru
  | [ f ] -> f
  | f :: rest -> app And [ f; conj rest ]

let implies a b = match a.node with Bool true -> b | _ -> app Implies [ a; b ]
let eq a b = app Eq [ a; b ]
let select a i = app Select [ a; i ]
let store a i v = app Store [ a; i; v ]

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let hash t = t.hash

(* Same domain: interning makes [==] complete, so two distinct live
   nodes are distinct terms.  Different domains: hash-pruned structural
   walk (children interned by the same two domains recurse the same
   way). *)
let rec equal a b =
  a == b
  || (a.dom <> b.dom && a.hash = b.hash && equal_node a.node b.node)

and equal_node n1 n2 =
  match (n1, n2) with
  | Int a, Int b -> a = b
  | Bool a, Bool b -> a = b
  | Var a, Var b -> String.equal a b
  | App (o1, a1), App (o2, a2) -> o1 = o2 && List.equal equal a1 a2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      equal c1 c2 && equal a1 a2 && equal b1 b2
  | Forall (x1, l1, h1, b1), Forall (x2, l2, h2, b2)
  | Exists (x1, l1, h1, b1), Exists (x2, l2, h2, b2) ->
      String.equal x1 x2 && equal l1 l2 && equal h1 h2 && equal b1 b2
  | _ -> false

let node_rank = function
  | Int _ -> 0
  | Bool _ -> 1
  | Var _ -> 2
  | App _ -> 3
  | Ite _ -> 4
  | Forall _ -> 5
  | Exists _ -> 6

(* The order [Stdlib.compare] gave on the pre-hash-consing ADT: term
   constructors by declaration order; ops by the polymorphic order on
   the (term-free) [op] type itself — every historic sort is preserved.
   Sorting decides simplifier/prover search order, and search order
   decides step counts and proof transcripts. *)
let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Int m, Int n -> Stdlib.compare m n
    | Bool m, Bool n -> Stdlib.compare m n
    | Var x, Var y -> Stdlib.compare x y
    | App (o1, a1), App (o2, a2) ->
        let c = Stdlib.compare o1 o2 in
        if c <> 0 then c else compare_list a1 a2
    | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
        let c = compare c1 c2 in
        if c <> 0 then c
        else
          let c = compare a1 a2 in
          if c <> 0 then c else compare b1 b2
    | Forall (x1, l1, h1, b1), Forall (x2, l2, h2, b2)
    | Exists (x1, l1, h1, b1), Exists (x2, l2, h2, b2) ->
        let c = Stdlib.compare x1 x2 in
        if c <> 0 then c
        else
          let c = compare l1 l2 in
          if c <> 0 then c
          else
            let c = compare h1 h2 in
            if c <> 0 then c else compare b1 b2
    | n1, n2 -> Stdlib.compare (node_rank n1) (node_rank n2)

and compare_list l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs ys

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let rec map f t =
  let t' =
    match t.node with
    | Int _ | Bool _ | Var _ -> t
    | App (op, args) ->
        let args' = map_sharing (map f) args in
        if args' == args then t else mk (App (op, args'))
    | Ite (c, a, b) ->
        let c' = map f c and a' = map f a and b' = map f b in
        if c' == c && a' == a && b' == b then t else mk (Ite (c', a', b'))
    | Forall (x, lo, hi, body) ->
        let lo' = map f lo and hi' = map f hi and body' = map f body in
        if lo' == lo && hi' == hi && body' == body then t
        else mk (Forall (x, lo', hi', body'))
    | Exists (x, lo, hi, body) ->
        let lo' = map f lo and hi' = map f hi and body' = map f body in
        if lo' == lo && hi' == hi && body' == body then t
        else mk (Exists (x, lo', hi', body'))
  in
  f t'

(* Preorder over the unfolded tree, shared subterms once per occurrence
   — consumers (conflict finders, instance collectors) depend on the
   historic visit order, so no occurrence deduplication here. *)
let rec iter f t =
  f t;
  match t.node with
  | Int _ | Bool _ | Var _ -> ()
  | App (_, args) -> List.iter (iter f) args
  | Ite (c, a, b) ->
      iter f c;
      iter f a;
      iter f b
  | Forall (_, lo, hi, body) | Exists (_, lo, hi, body) ->
      iter f lo;
      iter f hi;
      iter f body

(** Capture-naive substitution of a variable by a term (quantified variables
    shadow as expected).  The cached free-variable set prunes untouched
    subtrees in O(1); a per-call memo keyed on node identity rewrites each
    shared subterm once; a term without [x] free comes back as is, before
    any memo is allocated. *)
let subst x v t =
  if not (mem_fv x t.fvs) then t
  else
    let memo : (int * int, t) Hashtbl.t = Hashtbl.create 64 in
    let rec go t =
      if not (mem_fv x t.fvs) then t
      else
        let k = (t.dom, t.tag) in
        match Hashtbl.find_opt memo k with
        | Some r -> r
        | None ->
            let r =
              match t.node with
              | Var _ -> v (* x free in a Var means the Var is x *)
              | Int _ | Bool _ -> t
              | App (op, args) -> mk (App (op, map_sharing go args))
              | Ite (c, a, b) -> mk (Ite (go c, go a, go b))
              | Forall (y, lo, hi, body) ->
                  if String.equal x y then mk (Forall (y, go lo, go hi, body))
                  else mk (Forall (y, go lo, go hi, go body))
              | Exists (y, lo, hi, body) ->
                  if String.equal x y then mk (Exists (y, go lo, go hi, body))
                  else mk (Exists (y, go lo, go hi, go body))
            in
            Hashtbl.add memo k r;
            r
    in
    go t

let free_vars t = t.fvs
let node_count t = t.size

(* ------------------------------------------------------------------ *)
(* Printing (defines the byte-size metric for VCs)                     *)
(* ------------------------------------------------------------------ *)

let op_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Mod_op -> "mod"
  | Neg -> "-"
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "and" | Or -> "or" | Not -> "not" | Implies -> "->"
  | Band _ -> "band" | Bor _ -> "bor" | Bxor _ -> "bxor" | Bnot _ -> "bnot"
  | Shl _ -> "shl" | Shr _ -> "shr"
  | Wrap m -> Printf.sprintf "wrap%d" m
  | Select -> "select" | Store -> "store"
  | Arrlit lo -> Printf.sprintf "arr%d" lo
  | Uf name -> name

let rec pp ppf t =
  match t.node with
  | Int n -> Fmt.int ppf n
  | Bool b -> Fmt.bool ppf b
  | Var x -> Fmt.string ppf x
  | App ((Add | Sub | Mul | Div | Mod_op | Eq | Ne | Lt | Le | Gt | Ge | And | Or | Implies) as op, [ a; b ]) ->
      Fmt.pf ppf "(%a %s %a)" pp a (op_name op) pp b
  | App (Not, [ a ]) -> Fmt.pf ppf "(not %a)" pp a
  | App (Neg, [ a ]) -> Fmt.pf ppf "(- %a)" pp a
  | App (op, args) ->
      Fmt.pf ppf "%s(%a)" (op_name op) (Fmt.list ~sep:(Fmt.any ", ") pp) args
  | Ite (c, a, b) -> Fmt.pf ppf "(if %a then %a else %a)" pp c pp a pp b
  | Forall (x, lo, hi, body) ->
      Fmt.pf ppf "(forall %s in %a .. %a: %a)" x pp lo pp hi pp body
  | Exists (x, lo, hi, body) ->
      Fmt.pf ppf "(exists %s in %a .. %a: %a)" x pp lo pp hi pp body

let to_string t = Fmt.str "%a" pp t

(** Byte size of the printed form — the paper reports VC sizes in MB/KB. *)
let byte_size t = String.length (to_string t)

(* ------------------------------------------------------------------ *)
(* Canonical serialization and content digests                         *)
(* ------------------------------------------------------------------ *)

(* The printed form is ambiguous — [Var "f()"] and [App (Uf "f", [])]
   render identically — so the proof cache keys on an injective encoding
   instead: every constructor gets a distinct tag, integers are
   ';'-terminated, strings are length-prefixed, and argument lists carry
   their arity.  Two terms serialize equally iff they are structurally
   equal.  The byte format is unchanged from the plain-ADT days — only
   [vc_digest]'s composition differs (see below). *)

let add_int buf n =
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_op buf op =
  let c t = Buffer.add_char buf t in
  let ci t m = Buffer.add_char buf t; add_int buf m in
  match op with
  | Add -> c 'a' | Sub -> c 'b' | Mul -> c 'c' | Div -> c 'd' | Mod_op -> c 'e'
  | Neg -> c 'f'
  | Eq -> c 'g' | Ne -> c 'h' | Lt -> c 'i' | Le -> c 'j' | Gt -> c 'k' | Ge -> c 'l'
  | And -> c 'm' | Or -> c 'n' | Not -> c 'o' | Implies -> c 'p'
  | Band m -> ci 'q' m | Bor m -> ci 'r' m | Bxor m -> ci 's' m | Bnot m -> ci 't' m
  | Shl m -> ci 'u' m | Shr m -> ci 'v' m
  | Wrap m -> ci 'w' m
  | Select -> c 'x' | Store -> c 'y'
  | Arrlit lo -> ci 'z' lo
  | Uf name -> c 'U'; add_str buf name

let rec add_term buf t =
  match t.node with
  | Int n -> Buffer.add_char buf 'I'; add_int buf n
  | Bool true -> Buffer.add_char buf 'T'
  | Bool false -> Buffer.add_char buf 'F'
  | Var x -> Buffer.add_char buf 'V'; add_str buf x
  | App (op, args) ->
      Buffer.add_char buf 'A';
      add_op buf op;
      add_int buf (List.length args);
      List.iter (add_term buf) args
  | Ite (c, a, b) ->
      Buffer.add_char buf '?';
      add_term buf c; add_term buf a; add_term buf b
  | Forall (x, lo, hi, body) ->
      Buffer.add_char buf '!';
      add_str buf x;
      add_term buf lo; add_term buf hi; add_term buf body
  | Exists (x, lo, hi, body) ->
      Buffer.add_char buf 'E';
      add_str buf x;
      add_term buf lo; add_term buf hi; add_term buf body

let serialize t =
  let buf = Buffer.create 1024 in
  add_term buf t;
  Buffer.contents buf

(* Cached on the node.  A concurrent race recomputes the same hex string
   and stores it twice — idempotent, and OCaml field writes do not tear. *)
let digest t =
  match t.digest_memo with
  | "" ->
      let d = Digest.to_hex (Digest.string (serialize t)) in
      t.digest_memo <- d;
      d
  | d -> d

(* ------------------------------------------------------------------ *)
(* Verification conditions                                             *)
(* ------------------------------------------------------------------ *)

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

let vc_kind_name = function
  | Vc_postcondition -> "postcondition"
  | Vc_precondition_call -> "call-precondition"
  | Vc_assert -> "assert"
  | Vc_invariant_init -> "invariant-init"
  | Vc_invariant_preserve -> "invariant-preserve"
  | Vc_index_check -> "index-check"
  | Vc_range_check -> "range-check"
  | Vc_div_check -> "div-check"
  | Vc_overflow_check -> "overflow-check"

type vc = {
  vc_name : string;        (** e.g. "encrypt.3" *)
  vc_sub : string;         (** owning subprogram *)
  vc_kind : vc_kind;
  vc_hyps : t list;
  vc_goal : t;
}

let vc_formula vc = implies (conj vc.vc_hyps) vc.vc_goal

let vc_byte_size vc =
  List.fold_left (fun acc h -> acc + byte_size h + 1) (byte_size vc.vc_goal) vc.vc_hyps

(** Printed lines of one VC — the paper's "maximum length of verification
    conditions" metric (>10,000 lines at block 1, 68 at block 14, 126 with
    full annotations). *)
let vc_line_count vc =
  let line_width = 78 in
  List.fold_left
    (fun acc h -> acc + 1 + (byte_size h / line_width))
    (1 + (byte_size vc.vc_goal / line_width))
    vc.vc_hyps

(* Hypotheses are digested as an explicit list (order and grouping both
   matter to the proof search, so [vc_formula]'s conjunction — which
   conflates [H: a and b] with [H: a, H: b] — is not used here).  The
   name, subprogram and kind are labels, not proof inputs: renaming a VC
   must still hit the cache.

   Composition: a count prefix plus each term's cached 32-hex digest,
   hashed once more.  Injective up to MD5 collisions (as before — the
   whole encoding was MD5'd anyway), but O(1) per already-digested term
   instead of a fresh serialization of every hypothesis.  The byte
   stream differs from the pre-hash-consing vc_digest, so the proof
   cache's format version is bumped alongside this change. *)
let vc_digest vc =
  let buf = Buffer.create 256 in
  add_int buf (List.length vc.vc_hyps);
  List.iter (fun h -> Buffer.add_string buf (digest h)) vc.vc_hyps;
  Buffer.add_string buf (digest vc.vc_goal);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let localize_vc vc =
  let hyps = map_sharing localize vc.vc_hyps in
  let goal = localize vc.vc_goal in
  if hyps == vc.vc_hyps && goal == vc.vc_goal then vc
  else { vc with vc_hyps = hyps; vc_goal = goal }
