(* Formula simplifier — the stand-in for the SPARK Simplifier.

   The paper measures both generated VC size and simplified VC size
   (Fig. 2(d)/(e)); this module defines "simplified".  It performs constant
   folding, boolean and comparison reduction, linear-arithmetic
   normalisation, McCarthy select/store reduction, xor-chain cancellation,
   and bounded quantifier expansion.

   Terms are hash-consed (see formula.ml): inspection matches on [.node],
   construction goes through the smart constructors, and term comparisons
   use [Formula.equal]/[Formula.compare] — never the polymorphic ones,
   which would look at interning tags.  [simplify] is memoized per domain
   on node identity; [simplify_nomemo] is the raw fixpoint, kept for
   differential testing. *)

open Formula

(* ---------------- linear forms ---------------- *)

(* A linear form is a constant plus atom*coefficient products, where an atom
   is any non-arithmetic subterm.  Only used over numeric terms. *)

module Lin = struct
  type t = { const : int; atoms : (Formula.t * int) list }

  let of_const n = { const = n; atoms = [] }
  let of_atom a = { const = 0; atoms = [ (a, 1) ] }

  let rec assoc_opt t = function
    | [] -> None
    | (t', c) :: rest -> if Formula.equal t t' then Some c else assoc_opt t rest

  let remove_assoc t l =
    List.filter (fun (t', _) -> not (Formula.equal t t')) l

  let add a b =
    let atoms =
      List.fold_left
        (fun acc (t, c) ->
          match assoc_opt t acc with
          | Some c' -> (t, c + c') :: remove_assoc t acc
          | None -> (t, c) :: acc)
        a.atoms b.atoms
    in
    { const = a.const + b.const; atoms = List.filter (fun (_, c) -> c <> 0) atoms }

  let scale k a =
    if k = 0 then of_const 0
    else { const = k * a.const; atoms = List.map (fun (t, c) -> (t, k * c)) a.atoms }

  let neg = scale (-1)
  let sub a b = add a (neg b)
  let is_const a = a.atoms = []

  (* canonical term rebuild: atoms sorted for deterministic output *)
  let to_term a =
    let atoms =
      List.sort
        (fun (t1, c1) (t2, c2) ->
          let c = Formula.compare t1 t2 in
          if c <> 0 then c else Stdlib.compare c1 c2)
        a.atoms
    in
    let term_of (t, c) =
      if c = 1 then t
      else if c = -1 then app Neg [ t ]
      else app Mul [ num c; t ]
    in
    match (atoms, a.const) with
    | [], n -> num n
    | first :: rest, n ->
        let base = List.fold_left (fun acc at -> app Add [ acc; term_of at ]) (term_of first) rest in
        if n = 0 then base
        else if n > 0 then app Add [ base; num n ]
        else app Sub [ base; num (-n) ]
end

(* Attempt to view a term as a linear form.  Non-arithmetic heads become
   atoms; [None] is returned for terms that are clearly non-numeric
   (booleans, stores), so comparisons over them are left alone. *)
let rec linearize t : Lin.t option =
  match t.node with
  | Int n -> Some (Lin.of_const n)
  | Bool _ -> None
  | App (Add, [ a; b ]) -> lin2 a b Lin.add
  | App (Sub, [ a; b ]) -> lin2 a b Lin.sub
  | App (Neg, [ a ]) -> Option.map Lin.neg (linearize a)
  | App (Mul, [ { node = Int k; _ }; b ]) -> Option.map (Lin.scale k) (linearize b)
  | App (Mul, [ a; { node = Int k; _ } ]) -> Option.map (Lin.scale k) (linearize a)
  | App (Mul, _) | App (Div, _) | App (Mod_op, _) -> Some (Lin.of_atom t)
  | App ((Eq | Ne | Lt | Le | Gt | Ge | And | Or | Not | Implies), _) -> None
  | App (Store, _) -> None
  | Var _ | App ((Select | Uf _ | Wrap _ | Band _ | Bor _ | Bxor _ | Bnot _ | Shl _ | Shr _), _) ->
      Some (Lin.of_atom t)
  | App (_, _) -> Some (Lin.of_atom t)
  | Ite _ -> Some (Lin.of_atom t)
  | Forall _ | Exists _ -> None

and lin2 a b f =
  match (linearize a, linearize b) with
  | Some la, Some lb -> Some (f la lb)
  | _ -> None

(** The canonical difference a - b as a linear form, when both numeric. *)
let difference a b =
  match (linearize a, linearize b) with
  | Some la, Some lb -> Some (Lin.sub la lb)
  | _ -> None

(* ---------------- xor / and / or chains ---------------- *)

let rec flatten_chain op t =
  match t.node with
  | App (o, [ a; b ]) when o = op -> flatten_chain op a @ flatten_chain op b
  | _ -> [ t ]

(* xor chains: sort operands, cancel equal pairs, drop zeros *)
let rebuild_xor m operands =
  let sorted = List.sort Formula.compare operands in
  let rec cancel = function
    | a :: b :: rest when Formula.equal a b -> cancel rest
    | a :: rest -> a :: cancel rest
    | [] -> []
  in
  let remaining =
    cancel sorted
    |> List.filter (fun t -> match t.node with Int 0 -> false | _ -> true)
  in
  match remaining with
  | [] -> num 0
  | first :: rest ->
      List.fold_left (fun acc t -> app (Bxor m) [ acc; t ]) first rest

(* ---------------- one bottom-up simplification pass ---------------- *)

let expand_limit = 16

let wrap_int m n = if m <= 0 then n else ((n mod m) + m) mod m

(* Is this term certainly within [0, m)?  Conservative syntactic check used
   to drop redundant Wrap nodes. *)
let rec in_range m t =
  match t.node with
  | Int n -> n >= 0 && n < m
  | App (Wrap m', [ _ ]) -> m' = m
  | App ((Band m' | Bor m' | Bxor m' | Bnot m' | Shl m' | Shr m'), _) -> m' = m && m' > 0
  | Ite (_, a, b) -> in_range m a && in_range m b
  | _ -> false

let step t =
  match t.node with
  (* ---- constant folding: arithmetic ---- *)
  | App (Add, [ { node = Int a; _ }; { node = Int b; _ } ]) -> num (a + b)
  | App (Sub, [ { node = Int a; _ }; { node = Int b; _ } ]) -> num (a - b)
  | App (Mul, [ { node = Int a; _ }; { node = Int b; _ } ]) -> num (a * b)
  | App (Div, [ { node = Int a; _ }; { node = Int b; _ } ]) when b <> 0 -> num (a / b)
  | App (Mod_op, [ { node = Int a; _ }; { node = Int b; _ } ]) when b <> 0 ->
      num (wrap_int (abs b) a)
  | App (Neg, [ { node = Int a; _ } ]) -> num (-a)
  | App (Add, [ a; { node = Int 0; _ } ]) | App (Add, [ { node = Int 0; _ }; a ]) -> a
  | App (Sub, [ a; { node = Int 0; _ } ]) -> a
  | App (Mul, [ a; { node = Int 1; _ } ]) | App (Mul, [ { node = Int 1; _ }; a ]) -> a
  | App (Mul, [ _; { node = Int 0; _ } ]) | App (Mul, [ { node = Int 0; _ }; _ ]) -> num 0
  (* canonical linear form for remaining additive terms, e.g. (i+1)-1 = i *)
  | App ((Add | Sub | Neg), _) -> (
      match linearize t with
      | Some l ->
          let t' = Lin.to_term l in
          if Formula.equal t' t then t else t'
      | None -> t)
  (* ---- wrap ---- *)
  | App (Wrap m, [ { node = Int n; _ } ]) -> num (wrap_int m n)
  | App (Wrap m, [ a ]) when in_range m a -> a
  (* ---- bit operations (operands normalised into the modulus first, so
     folding agrees with ground evaluation on negative literals) ---- *)
  | App (Band m, [ { node = Int a; _ }; { node = Int b; _ } ]) ->
      num (wrap_int m (wrap_int m a land wrap_int m b))
  | App (Bor m, [ { node = Int a; _ }; { node = Int b; _ } ]) ->
      num (wrap_int m (wrap_int m a lor wrap_int m b))
  | App (Bxor m, [ { node = Int a; _ }; { node = Int b; _ } ]) ->
      num (wrap_int m (wrap_int m a lxor wrap_int m b))
  | App (Bnot m, [ { node = Int a; _ } ]) when m > 0 -> num (m - 1 - wrap_int m a)
  | App (Shl m, [ { node = Int a; _ }; { node = Int k; _ } ]) when k >= 0 && k < 62 ->
      num (wrap_int m (wrap_int m a lsl k))
  | App (Shr m, [ { node = Int a; _ }; { node = Int k; _ } ]) when k >= 0 && k < 62 ->
      num (wrap_int m (wrap_int m a lsr k))
  | App (Bxor m, [ _; _ ]) -> rebuild_xor m (flatten_chain (Bxor m) t)
  | App (Band _, [ a; b ]) when Formula.equal a b -> a
  | App (Bor _, [ a; b ]) when Formula.equal a b -> a
  | App (Bor _, [ a; { node = Int 0; _ } ]) | App (Bor _, [ { node = Int 0; _ }; a ]) -> a
  (* ---- booleans ---- *)
  | App (And, [ { node = Bool true; _ }; a ]) | App (And, [ a; { node = Bool true; _ } ]) -> a
  | App (And, [ { node = Bool false; _ }; _ ]) | App (And, [ _; { node = Bool false; _ } ]) -> fls
  | App (And, [ a; b ]) when Formula.equal a b -> a
  | App (Or, [ { node = Bool false; _ }; a ]) | App (Or, [ a; { node = Bool false; _ } ]) -> a
  | App (Or, [ { node = Bool true; _ }; _ ]) | App (Or, [ _; { node = Bool true; _ } ]) -> tru
  | App (Or, [ a; b ]) when Formula.equal a b -> a
  | App (Not, [ { node = Bool b; _ } ]) -> bool_ (not b)
  | App (Not, [ { node = App (Not, [ a ]); _ } ]) -> a
  | App (Not, [ { node = App (Eq, [ a; b ]); _ } ]) -> app Ne [ a; b ]
  | App (Not, [ { node = App (Ne, [ a; b ]); _ } ]) -> app Eq [ a; b ]
  | App (Not, [ { node = App (Lt, [ a; b ]); _ } ]) -> app Ge [ a; b ]
  | App (Not, [ { node = App (Le, [ a; b ]); _ } ]) -> app Gt [ a; b ]
  | App (Not, [ { node = App (Gt, [ a; b ]); _ } ]) -> app Le [ a; b ]
  | App (Not, [ { node = App (Ge, [ a; b ]); _ } ]) -> app Lt [ a; b ]
  | App (Implies, [ { node = Bool true; _ }; a ]) -> a
  | App (Implies, [ { node = Bool false; _ }; _ ]) -> tru
  | App (Implies, [ _; { node = Bool true; _ } ]) -> tru
  | App (Implies, [ a; { node = Bool false; _ } ]) -> app Not [ a ]
  | App (Implies, [ a; b ]) when Formula.equal a b -> tru
  (* ---- ite ---- *)
  | Ite ({ node = Bool true; _ }, a, _) -> a
  | Ite ({ node = Bool false; _ }, _, b) -> b
  | Ite (_, a, b) when Formula.equal a b -> a
  (* ---- select / store ---- *)
  | App (Select, [ { node = App (Arrlit lo, elems); _ }; { node = Int i; _ } ])
    when i >= lo && i - lo < List.length elems ->
      List.nth elems (i - lo)
  | App (Select, [ { node = App (Store, [ arr; i; v ]); _ }; j ]) -> (
      if Formula.equal i j then v
      else
        match difference i j with
        | Some d when Lin.is_const d ->
            if d.Lin.const = 0 then v else select arr j
        | _ -> t)
  | App (Store, [ { node = App (Store, [ arr; i; _ ]); _ }; j; w ])
    when Formula.equal i j ->
      store arr j w
  (* ---- wrapped values are within [0, m) by construction ---- *)
  | App (Ge, [ { node = App (Wrap _, _); _ }; { node = Int n; _ } ]) when n <= 0 -> tru
  | App (Lt, [ { node = App (Wrap m, _); _ }; { node = Int n; _ } ]) when n >= m -> tru
  | App (Le, [ { node = App (Wrap m, _); _ }; { node = Int n; _ } ]) when n >= m - 1 -> tru
  (* ---- comparisons ---- *)
  | App (Eq, [ a; b ]) when Formula.equal a b -> tru
  | App (Ne, [ a; b ]) when Formula.equal a b -> fls
  | App (Le, [ a; b ]) when Formula.equal a b -> tru
  | App (Ge, [ a; b ]) when Formula.equal a b -> tru
  | App (Lt, [ a; b ]) when Formula.equal a b -> fls
  | App (Gt, [ a; b ]) when Formula.equal a b -> fls
  | App ((Eq | Ne | Lt | Le | Gt | Ge) as op, [ a; b ]) -> (
      match difference a b with
      | Some d when Lin.is_const d ->
          let c = d.Lin.const in
          bool_
            (match op with
            | Eq -> c = 0
            | Ne -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
            | _ -> assert false)
      | Some d -> (
          (* single atom with unit coefficient: present as "atom op const" *)
          match d.Lin.atoms with
          | [ (atom, 1) ] ->
              let t' = app op [ atom; num (-d.Lin.const) ] in
              if Formula.equal t' t then t else t'
          | [ (atom, -1) ] ->
              let flipped =
                match op with
                | Eq -> Eq | Ne -> Ne
                | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
                | _ -> assert false
              in
              let t' = app flipped [ atom; num d.Lin.const ] in
              if Formula.equal t' t then t else t'
          | _ -> t)
      | None -> t)
  (* ---- quantifiers ---- *)
  | Forall (x, { node = Int lo; _ }, { node = Int hi; _ }, body) ->
      if hi < lo then tru
      else if hi - lo + 1 <= expand_limit then
        conj (List.init (hi - lo + 1) (fun k -> Formula.subst x (num (lo + k)) body))
      else t
  | Exists (x, { node = Int lo; _ }, { node = Int hi; _ }, body) ->
      if hi < lo then fls
      else if hi - lo + 1 <= expand_limit then
        let cases = List.init (hi - lo + 1) (fun k -> Formula.subst x (num (lo + k)) body) in
        List.fold_left (fun acc c -> app Or [ acc; c ]) fls cases
      else t
  | Forall (_, _, _, { node = Bool true; _ }) -> tru
  | Exists (_, _, _, { node = Bool false; _ }) -> fls
  | _ -> t

let max_passes = 12

(* cumulative count of productive rewrite passes, for profiling: telemetry
   reads deltas around proof attempts to attribute simplifier effort.
   Atomic, because the proof farm simplifies on several domains at once;
   per-attempt deltas are then only approximate under concurrency, but
   the process total stays exact.  Memo hits replay a cached result and
   so add no passes. *)
let passes = Atomic.make 0

let rewrite_passes () = Atomic.get passes

(* The fixpoint, also reporting whether it converged (as opposed to being
   cut off by [max_passes]) and the intermediate terms it went through. *)
let fixpoint t0 =
  let rec go n acc t =
    if n >= max_passes then (t, acc, false)
    else
      let t' = Formula.map step t in
      if Formula.equal t' t then (t, acc, true)
      else begin
        Atomic.incr passes;
        go (n + 1) (t' :: acc) t'
      end
  in
  go 0 [] t0

let simplify_nomemo t =
  let r, _, _ = fixpoint t in
  r

(* Per-domain memo on node identity.  The input-to-result entry is always
   sound (simplify is deterministic).  Intermediate terms map to the same
   result only when the fixpoint converged: a run cut off at [max_passes]
   may leave an intermediate that a fresh budget would simplify further,
   and caching that would change results between warm and cold runs. *)
let memo_cap = 1 lsl 17

let memo_key : (int * int, Formula.t) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create memo_cap)

let memo_stats () = Memo.stats (Domain.DLS.get memo_key)

let simplify t =
  let memo = Domain.DLS.get memo_key in
  Memo.find memo (t.dom, t.tag) (fun () ->
      let r, intermediates, converged = fixpoint t in
      if converged then
        List.iter (fun t' -> Memo.add memo (t'.dom, t'.tag) r) intermediates;
      r)

(** Simplify a VC: hypotheses and goal; drops trivially-true hypotheses and
    detects trivially-true goals early. *)
let simplify_vc (vc : vc) =
  let hyps =
    vc.vc_hyps |> List.map simplify
    |> List.concat_map (fun h -> flatten_chain And h)
    |> List.filter (fun h -> match h.node with Bool true -> false | _ -> true)
  in
  let goal = simplify vc.vc_goal in
  if List.exists (fun h -> match h.node with Bool false -> true | _ -> false) hyps
  then { vc with vc_hyps = []; vc_goal = tru }
  else { vc with vc_hyps = hyps; vc_goal = goal }
