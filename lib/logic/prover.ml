(* Automatic discharger for verification conditions — the stand-in for the
   SPARK proof checker (implementation proof) and the lemma-level engine the
   implication proof builds on.

   Pipeline, mirroring what the paper reports about SPARK behaviour:
   1. simplification (constant folding, select/store, xor cancellation);
   2. syntactic entailment (goal among hypotheses);
   3. rewriting with equational hypotheses;
   4. ground evaluation, optionally consulting an interpretation for
      program function symbols;
   5. Fourier–Motzkin refutation over the rationals for linear arithmetic
      (sound for integer goals);
   6. bounded case-splitting on range-constrained variables.

   Anything not dischargeable automatically is [Unknown] and needs a hint —
   the analogue of the paper's "straightforward manual intervention"
   (application of preconditions, induction on loop invariants).

   Terms are hash-consed (formula.ml): syntactic entailment and every
   other term comparison goes through [Formula.equal] (O(1) within a
   domain), hypothesis facts the search consults repeatedly — linear
   constraints, variable bounds, rewrite rules — are either memoized on
   node identity or indexed by head symbol up front, and the VC is
   localized into the calling domain's interner on entry so a farm
   worker never chases another domain's nodes. *)

open Formula

type outcome =
  | Proved
  | Unknown of string  (** reason / residual goal *)
  | Timeout of float   (** wall-clock deadline hit after this many seconds *)

type hint =
  | Hint_induction
      (** split the last index off a goal quantifier: matches "induction on
          loop invariants" *)
  | Hint_apply_hyp
      (** instantiate quantified hypotheses at the goal's reads of the
          arrays they constrain: matches "application of preconditions" *)
  | Hint_unfold of string * string list * Formula.t
      (** function name, formal parameters, defining body: rewrite
          applications of an uninterpreted program function *)

type config = {
  interp : (string -> int list -> int option) option;
      (** evaluate a program function on ground integer arguments *)
  max_split : int;    (** widest range eligible for case splitting *)
  max_steps : int;    (** recursion budget *)
  deadline_s : float option;
      (** per-VC wall-clock budget, checked inside the search loop *)
}

let default_config =
  { interp = None; max_split = 64; max_steps = 4000; deadline_s = None }

let standard_hints = [ Hint_apply_hyp; Hint_induction ]

(* The deadline is enforced with an exception so the check costs one
   comparison per search step instead of threading a result through every
   recursive return.  Scoped to [prove_vc], which converts it to
   [Timeout]. *)
exception Deadline_hit

(* Per-[prove_vc] search state, threaded through the recursive search so
   concurrent provers on separate domains never share a counter or a
   deadline — the proof farm runs one [prove_vc] per worker.  [sx_steps]
   and [sx_deadline] reset per capability level; [sx_consts] resets per
   VC so skolem names (and hence outcomes) are deterministic whatever ran
   before.
   [sx_uf_rules] keeps the last hypothesis list's saturated UF rewrite
   rules (see [rewrite_with_uf_equations]). *)
type session = {
  mutable sx_deadline : float;  (* absolute Clock deadline, [infinity] = none *)
  mutable sx_steps : int;
  mutable sx_consts : int;
  mutable sx_uf_rules : (t list * (int, t * t) Hashtbl.t) option;
}

(* membership of a term in a hypothesis list — O(1) per element thanks to
   hash-consing *)
let mem_term t l = List.exists (Formula.equal t) l

let is_true t = match t.node with Bool true -> true | _ -> false
let is_false t = match t.node with Bool false -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Ground evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let rec eval_ground cfg t : int option =
  (* integers only; booleans encoded via eval_ground_bool *)
  match t.node with
  | Int n -> Some n
  | Bool _ | Var _ -> None
  | App (op, args) -> (
      let args' = List.map (eval_ground cfg) args in
      if List.exists Option.is_none args' then None
      else
        let vals = List.map Option.get args' in
        match (op, vals) with
        | Add, [ a; b ] -> Some (a + b)
        | Sub, [ a; b ] -> Some (a - b)
        | Mul, [ a; b ] -> Some (a * b)
        | Div, [ a; b ] when b <> 0 -> Some (a / b)
        | Mod_op, [ a; b ] when b <> 0 -> Some (((a mod b) + abs b) mod abs b)
        | Neg, [ a ] -> Some (-a)
        | Wrap m, [ a ] when m > 0 -> Some (((a mod m) + m) mod m)
        | Band m, [ a; b ] -> Some (Simplify.wrap_int m (Simplify.wrap_int m a land Simplify.wrap_int m b))
        | Bor m, [ a; b ] -> Some (Simplify.wrap_int m (Simplify.wrap_int m a lor Simplify.wrap_int m b))
        | Bxor m, [ a; b ] -> Some (Simplify.wrap_int m (Simplify.wrap_int m a lxor Simplify.wrap_int m b))
        | Bnot m, [ a ] when m > 0 -> Some (m - 1 - Simplify.wrap_int m a)
        | Shl m, [ a; k ] when k >= 0 && k < 62 ->
            Some (Simplify.wrap_int m (Simplify.wrap_int m a lsl k))
        | Shr m, [ a; k ] when k >= 0 && k < 62 ->
            Some (Simplify.wrap_int m (Simplify.wrap_int m a lsr k))
        | Uf name, vals -> (
            match cfg.interp with
            | Some f -> f name vals
            | None -> None)
        | _ -> None)
  | Ite (c, a, b) -> (
      match eval_ground_bool cfg c with
      | Some true -> eval_ground cfg a
      | Some false -> eval_ground cfg b
      | None -> None)
  | Forall _ | Exists _ -> None

and eval_ground_bool cfg t : bool option =
  match t.node with
  | Bool b -> Some b
  | App ((Eq | Ne | Lt | Le | Gt | Ge) as op, [ a; b ]) -> (
      match (eval_ground cfg a, eval_ground cfg b) with
      | Some x, Some y ->
          Some
            (match op with
            | Eq -> x = y
            | Ne -> x <> y
            | Lt -> x < y
            | Le -> x <= y
            | Gt -> x > y
            | Ge -> x >= y
            | _ -> assert false)
      | _ -> None)
  | App (And, [ a; b ]) -> (
      match (eval_ground_bool cfg a, eval_ground_bool cfg b) with
      | Some x, Some y -> Some (x && y)
      | Some false, _ | _, Some false -> Some false
      | _ -> None)
  | App (Or, [ a; b ]) -> (
      match (eval_ground_bool cfg a, eval_ground_bool cfg b) with
      | Some x, Some y -> Some (x || y)
      | Some true, _ | _, Some true -> Some true
      | _ -> None)
  | App (Not, [ a ]) -> Option.map not (eval_ground_bool cfg a)
  | App (Implies, [ a; b ]) -> (
      match (eval_ground_bool cfg a, eval_ground_bool cfg b) with
      | Some false, _ -> Some true
      | _, Some true -> Some true
      | Some x, Some y -> Some ((not x) || y)
      | _ -> None)
  | Forall (x, lo, hi, body) -> (
      match (eval_ground cfg lo, eval_ground cfg hi) with
      | Some l, Some h when h - l <= 4096 ->
          let rec all i =
            if i > h then Some true
            else
              match eval_ground_bool cfg (Formula.subst x (num i) body) with
              | Some true -> all (i + 1)
              | other -> other
          in
          all l
      | _ -> None)
  | Exists (x, lo, hi, body) -> (
      match (eval_ground cfg lo, eval_ground cfg hi) with
      | Some l, Some h when h - l <= 4096 ->
          let rec some i =
            if i > h then Some false
            else
              match eval_ground_bool cfg (Formula.subst x (num i) body) with
              | Some false -> some (i + 1)
              | Some true -> Some true
              | None -> None
          in
          some l
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fourier–Motzkin over the rationals                                  *)
(* ------------------------------------------------------------------ *)

(* constraints: sum of coeff*var + const >= 0 (Ge0) or > 0 (Gt0) *)
type constr = { coeffs : (string * int) list; cst : int; strict : bool }

(* Per-domain memos of pure functions of one node, keyed by node
   identity: eviction can only cost a recomputation, never an outcome. *)
let memo_cap = 1 lsl 16

(* FM keys non-variable atoms by their printed form; elimination order
   sorts those keys, so the exact string matters.  Printing a large atom
   repeatedly was a top profile entry — memoize per node. *)
let atom_key_memo : (int * int, string) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create memo_cap)

let atom_key t =
  Memo.find (Domain.DLS.get atom_key_memo) (t.dom, t.tag) (fun () ->
      "!atom:" ^ Formula.to_string t)

(* All terms denote integers, so a strict bound tightens to a non-strict
   one: t > 0 becomes t - 1 >= 0.  This buys integer completeness that
   plain rational Fourier–Motzkin lacks. *)
let constr_of_lin ~strict (lin : Simplify.Lin.t) =
  (* FM works over named atoms: any non-arithmetic subterm is treated as an
     opaque variable, keyed by its printed form *)
  let small = List.for_all (fun (t, _) -> Formula.node_count t <= 40) lin.Simplify.Lin.atoms in
  if not small then None
  else
    let coeffs =
      List.map
        (fun (t, c) ->
          match t.node with Var x -> (x, c) | _ -> (atom_key t, c))
        lin.Simplify.Lin.atoms
    in
    let cst = if strict then lin.Simplify.Lin.const - 1 else lin.Simplify.Lin.const in
    Some { coeffs; cst; strict = false }

(* turn a simplified comparison into 1-2 constraints meaning "this holds".
   Pure in the formula (no config involved), so memoized per node: the
   search re-derives constraints for the same hypothesis list at every
   FM call site. *)
let constraints_memo : (int * int, constr list option) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create memo_cap)

let constraints_of_formula t : constr list option =
  let compute () =
    let diff a b = Simplify.difference a b in
    match t.node with
    | App (Le, [ a; b ]) ->
        Option.bind (diff b a) (constr_of_lin ~strict:false) |> Option.map (fun c -> [ c ])
    | App (Lt, [ a; b ]) ->
        Option.bind (diff b a) (constr_of_lin ~strict:true) |> Option.map (fun c -> [ c ])
    | App (Ge, [ a; b ]) ->
        Option.bind (diff a b) (constr_of_lin ~strict:false) |> Option.map (fun c -> [ c ])
    | App (Gt, [ a; b ]) ->
        Option.bind (diff a b) (constr_of_lin ~strict:true) |> Option.map (fun c -> [ c ])
    | App (Eq, [ a; b ]) -> (
        match (Option.bind (diff a b) (constr_of_lin ~strict:false),
               Option.bind (diff b a) (constr_of_lin ~strict:false))
        with
        | Some c1, Some c2 -> Some [ c1; c2 ]
        | _ -> None)
    | _ -> None
  in
  Memo.find (Domain.DLS.get constraints_memo) (t.dom, t.tag) compute

let memo_stats () =
  [ ("prover_atom_memo", Memo.stats (Domain.DLS.get atom_key_memo));
    ("prover_constraints_memo", Memo.stats (Domain.DLS.get constraints_memo)) ]

(* the linear fragment of a hypothesis list — every constituent lookup is
   memoized above, so this is one table probe per hypothesis *)
let lin_constraints hyps =
  List.concat (List.filter_map constraints_of_formula hyps)

let negation_constraints t : constr list option =
  (* constraints meaning "not t" *)
  match t.node with
  | App (Le, [ a; b ]) -> constraints_of_formula (app Gt [ a; b ])
  | App (Lt, [ a; b ]) -> constraints_of_formula (app Ge [ a; b ])
  | App (Ge, [ a; b ]) -> constraints_of_formula (app Lt [ a; b ])
  | App (Gt, [ a; b ]) -> constraints_of_formula (app Le [ a; b ])
  | _ -> None (* Eq negation is a disjunction: not handled here *)

let coeff x c = match List.assoc_opt x c.coeffs with Some k -> k | None -> 0

let vars_of_constrs cs =
  List.sort_uniq String.compare (List.concat_map (fun c -> List.map fst c.coeffs) cs)

(* eliminate one variable by combining positive and negative occurrences *)
let eliminate x cs =
  let pos = List.filter (fun c -> coeff x c > 0) cs in
  let neg = List.filter (fun c -> coeff x c < 0) cs in
  let rest = List.filter (fun c -> coeff x c = 0) cs in
  let combine p n =
    let a = coeff x p and b = -coeff x n in
    (* b*p + a*n eliminates x; a, b > 0 so the inequality direction holds *)
    let add_scaled k c acc =
      List.fold_left
        (fun acc (y, cy) ->
          let cur = match List.assoc_opt y acc with Some v -> v | None -> 0 in
          (y, cur + (k * cy)) :: List.remove_assoc y acc)
        acc c.coeffs
    in
    let coeffs = add_scaled a n (add_scaled b p []) in
    let coeffs = List.filter (fun (y, v) -> v <> 0 && y <> x) coeffs in
    { coeffs; cst = (b * p.cst) + (a * n.cst); strict = p.strict || n.strict }
  in
  rest @ List.concat_map (fun p -> List.map (combine p) neg) pos

(* restrict a constraint set to those transitively sharing variables with
   the seed constraints — Fourier-Motzkin then only eliminates variables in
   the goal's cone of influence instead of drowning in unrelated facts *)
let cone_of_influence ~seed cs =
  let vars_of c = List.map fst c.coeffs in
  let rec grow vars selected rest =
    let related, rest' =
      List.partition (fun c -> List.exists (fun v -> List.mem v vars) (vars_of c)) rest
    in
    if related = [] then selected
    else
      let vars' =
        List.sort_uniq String.compare (vars @ List.concat_map vars_of related)
      in
      grow vars' (selected @ related) rest'
  in
  let seed_vars = List.sort_uniq String.compare (List.concat_map vars_of seed) in
  grow seed_vars seed cs

let rec fm_unsat budget cs =
  if budget <= 0 || List.length cs > 600 then false
  else if
    List.exists
      (fun c ->
        c.coeffs = [] && (if c.strict then c.cst <= 0 else c.cst < 0))
      cs
  then true
  else
    match vars_of_constrs cs with
    | [] -> false
    | x :: _ -> fm_unsat (budget - 1) (eliminate x cs)

(* Does the linear fragment of [hyps] entail [f]?  Refutes hyps /\ not f. *)
let rec fm_implies hyps f =
  let lin_hyps = lin_constraints hyps in
  match negation_constraints f with
  | Some neg ->
      let cs = cone_of_influence ~seed:neg lin_hyps in
      fm_unsat (List.length (vars_of_constrs cs) + 8) cs
  | None -> (
      (* equalities negate to a disjunction; prove via both strict sides
         being refuted is wrong, so only handle the conjunction forms *)
      match f.node with
      | App (Eq, [ a; b ]) ->
          fm_implies hyps (app Le [ a; b ]) && fm_implies hyps (app Ge [ a; b ])
      | _ -> false)

(* Resolve select-over-store nodes whose indices are separated (or equated)
   by the linear hypotheses, e.g. [select (store (a, i, v), k)] with
   hypothesis [k <= i - 1].  A store-free subterm is returned as is: the
   rebuild would only re-intern it into the same node, since the smart
   constructors never rewrite and the prover's terms are all local. *)
let reduce_selects hyps t =
  let rec reduce hyps t =
    let distinct i j =
      fm_implies hyps (app Lt [ i; j ]) || fm_implies hyps (app Gt [ i; j ])
    in
    let equal_idx i j = fm_implies hyps (app Eq [ i; j ]) in
    match t.node with
    | _ when not t.stores -> t
    | App (Select, [ arr; j ]) -> (
        let j = reduce hyps j in
        let rec through arr =
          match arr.node with
          | App (Store, [ arr'; i; v ]) ->
              if Formula.equal i j || equal_idx i j then reduce hyps v
              else if distinct i j then through arr'
              else select (reduce hyps arr) j
          | _ -> select (reduce hyps arr) j
        in
        through arr)
    | Int _ | Bool _ | Var _ -> t
    | App (op, args) -> app op (List.map (reduce hyps) args)
    | Ite (c, a, b) -> ite (reduce hyps c) (reduce hyps a) (reduce hyps b)
    | Forall (x, lo, hi, body) ->
        (* inside the binder, the bound variable's range is known *)
        let extra = [ app Ge [ var x; lo ]; app Le [ var x; hi ] ] in
        forall x (reduce hyps lo) (reduce hyps hi) (reduce (extra @ hyps) body)
    | Exists (x, lo, hi, body) ->
        let extra = [ app Ge [ var x; lo ]; app Le [ var x; hi ] ] in
        exists x (reduce hyps lo) (reduce hyps hi) (reduce (extra @ hyps) body)
  in
  reduce hyps t

(* ------------------------------------------------------------------ *)
(* Equational rewriting with hypotheses                                *)
(* ------------------------------------------------------------------ *)

let rewrite_with_equalities hyps goal =
  (* use hypotheses of the form [x = t] (variable on either side) as
     substitutions into the goal *)
  let substitutions =
    List.filter_map
      (fun h ->
        match h.node with
        | App (Eq, [ { node = Var x; _ }; t ]) when not (List.mem x (free_vars t)) -> Some (x, t)
        | App (Eq, [ t; { node = Var x; _ } ]) when not (List.mem x (free_vars t)) -> Some (x, t)
        | _ -> None)
      hyps
  in
  List.fold_left (fun g (x, t) -> Formula.subst x t g) goal substitutions

(* Head-indexed rule lookup: the rewriter visits every node of the goal,
   so the per-node cost must be a hash probe, not a scan of the rule
   list.  Inserted in reverse so [find_all] yields original order and
   the first matching rule wins, as the assoc scan did. *)
let index_rules rules =
  let idx = Hashtbl.create (max 16 (2 * List.length rules)) in
  List.iter (fun ((l, _) as rule) -> Hashtbl.add idx l.hash rule) (List.rev rules);
  idx

let rewrite_fixpoint idx n t =
  let lookup t =
    let rec first = function
      | [] -> None
      | (l, r) :: rest -> if Formula.equal t l then Some r else first rest
    in
    first (Hashtbl.find_all idx t.hash)
  in
  let apply_rules t =
    Formula.map (fun t -> match lookup t with Some rhs -> rhs | None -> t) t
  in
  let rec go n t =
    if n = 0 then t
    else
      let t' = apply_rules t in
      if Formula.equal t' t then t else go (n - 1) t'
  in
  go n t

(* Use equational hypotheses whose left side is a function application as
   left-to-right rewrite rules on the goal — how assumed postconditions of
   called functions ([f(x) = x + 1]) propagate into proof goals.  The
   saturated rule index depends only on the hypotheses (each element's
   structure, in list order), so it is built once per hypothesis list:
   conjunct splits call back again and again with the same list. *)
let uf_rule_index hyps =
  let rules =
    List.filter_map
      (fun h ->
        match h.node with
        | App (Eq, [ ({ node = App (Uf _, _); _ } as lhs); rhs ])
          when not (Formula.equal lhs rhs) ->
            Some (lhs, rhs)
        (* definitional equations on array cells (select chains over havoc
           symbols) rewrite the same way: how callee postconditions about
           out-parameter elements propagate *)
        | App (Eq, [ ({ node = App (Select, _); _ } as lhs); rhs ])
          when not (Formula.equal lhs rhs) ->
            let contains_lhs = ref false in
            Formula.iter (fun t -> if Formula.equal t lhs then contains_lhs := true) rhs;
            if !contains_lhs then None else Some (lhs, rhs)
        | _ -> None)
      hyps
    (* larger left sides first, so outer applications rewrite before the
       inner applications they contain *)
    |> List.sort (fun (a, _) (b, _) -> Int.compare (node_count b) (node_count a))
  in
  (* saturate: rewrite each rule with the others, so that rules over
     intermediate program variables compose (inner applications may have
     been rewritten away before an outer rule is tried) *)
  let saturated =
    List.mapi
      (fun i (lhs, rhs) ->
        let others = index_rules (List.filteri (fun j _ -> j <> i) rules) in
        (rewrite_fixpoint others 4 lhs, rewrite_fixpoint others 4 rhs))
      rules
    |> List.filter (fun (l, r) -> not (Formula.equal l r))
  in
  index_rules (rules @ saturated)

let rewrite_with_uf_equations sx hyps goal =
  let idx =
    match sx.sx_uf_rules with
    | Some (hyps', idx) when List.equal ( == ) hyps hyps' -> idx
    | _ ->
        let idx = uf_rule_index hyps in
        sx.sx_uf_rules <- Some (hyps, idx);
        idx
  in
  rewrite_fixpoint idx 8 goal

(* ------------------------------------------------------------------ *)
(* Main proof search                                                   *)
(* ------------------------------------------------------------------ *)

let split_conjuncts goal = Simplify.flatten_chain And goal

(* Hypothesis-derived bounds, indexed by variable in one pass: replays
   the facts in hypothesis order per variable ([Eq] overwrites, [Ge]/[Le]
   tighten), exactly as the old per-variable scan did, but case splitting
   then probes candidates in O(1) instead of rescanning the full list. *)
let bounds_index hyps =
  let tbl : (string, int option ref * int option ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let get x =
    match Hashtbl.find_opt tbl x with
    | Some p -> p
    | None ->
        let p = (ref None, ref None) in
        Hashtbl.add tbl x p;
        p
  in
  List.iter
    (fun h ->
      match h.node with
      | App (Ge, [ { node = Var y; _ }; { node = Int n; _ } ]) ->
          let lo, _ = get y in
          lo := Some (max n (Option.value ~default:n !lo))
      | App (Le, [ { node = Var y; _ }; { node = Int n; _ } ]) ->
          let _, hi = get y in
          hi := Some (min n (Option.value ~default:n !hi))
      | App (Gt, [ { node = Var y; _ }; { node = Int n; _ } ]) ->
          let lo, _ = get y in
          lo := Some (max (n + 1) (Option.value ~default:(n + 1) !lo))
      | App (Lt, [ { node = Var y; _ }; { node = Int n; _ } ]) ->
          let _, hi = get y in
          hi := Some (min (n - 1) (Option.value ~default:(n - 1) !hi))
      | App (Eq, [ { node = Var y; _ }; { node = Int n; _ } ]) ->
          let lo, hi = get y in
          lo := Some n;
          hi := Some n
      | _ -> ())
    hyps;
  tbl

let bounds_lookup tbl x =
  match Hashtbl.find_opt tbl x with
  | Some ({ contents = Some l }, { contents = Some h }) -> Some (l, h)
  | _ -> None

let fresh_const sx base =
  sx.sx_consts <- sx.sx_consts + 1;
  Printf.sprintf "%s!%d" base sx.sx_consts

(* Capabilities enabled by interactive hints.  Automatic proof runs with
   both disabled; each hint in the list passed to [prove_vc] switches one
   on, and a VC that only proves with capabilities enabled is counted as
   needing manual intervention. *)
type caps = {
  c_instantiate : bool;  (** instantiate quantified hypotheses at goal reads *)
  c_induction : bool;    (** range-split quantified goals / case-split stores *)
}

let no_caps = { c_instantiate = false; c_induction = false }

(* the array a read goes through: [select]/[store] chains stripped *)
let rec array_base a =
  match a.node with
  | App ((Select | Store), b :: _) -> array_base b
  | _ -> a

(* a quantified hypothesis's triggers: the array bases of every
   [select(A, x)] in its body whose index is its own bound variable [x]
   (an inner binder of the same name hides [x]) *)
let triggers x body =
  let rec go acc t =
    match t.node with
    | Int _ | Bool _ | Var _ -> acc
    | App (Select, [ a; { node = Var y; _ } ]) when String.equal x y ->
        go (array_base a :: acc) a
    | App (_, args) -> List.fold_left go acc args
    | Ite (c, a, b) -> go (go (go acc c) a) b
    | Forall (y, lo, hi, b) | Exists (y, lo, hi, b) ->
        let acc = go (go acc lo) hi in
        if String.equal x y then acc else go acc b
  in
  go [] body

(* instantiate quantified hypotheses at index terms appearing in the goal;
   instances carry their range guard as an implication.  Instantiation is
   pattern-directed, as with the triggers of the Simplify prover (Detlefs,
   Nelson & Saxe, 2005): a hypothesis with triggers is instantiated only
   at the indices of the goal's reads of those arrays, direct or through a
   store chain.  That keeps out most instances whose range guard the
   search can only fail to prove, such as a column invariant instantiated
   at an S-box byte.  One whose bound variable is never a direct [select]
   index is instantiated at every [select] index and every variable of
   the goal. *)
let instantiate_hyps hyps goal =
  let reads = ref [] and all_terms = ref [] in
  Formula.iter
    (fun t ->
      match t.node with
      | App (Select, [ a; i ]) ->
          reads := (array_base a, i) :: !reads;
          all_terms := i :: !all_terms
      | Var _ -> all_terms := t :: !all_terms
      | _ -> ())
    goal;
  let all_terms = List.sort_uniq Formula.compare !all_terms in
  let candidates x body =
    match triggers x body with
    | [] -> all_terms
    | trig ->
        List.filter_map (fun (b, i) -> if mem_term b trig then Some i else None) !reads
        |> List.sort_uniq Formula.compare
  in
  List.concat_map
    (fun h ->
      match h.node with
      | Forall (x, lo, hi, body) ->
          h
          :: List.map
               (fun i ->
                 Simplify.simplify
                   (app Implies
                      [ app And [ app Le [ lo; i ]; app Le [ i; hi ] ];
                        Formula.subst x i body ]))
               (candidates x body)
      | _ -> [ h ])
    hyps

(* range-split: forall x in lo .. hi => P  into
   hi < lo \/ ((forall x in lo .. hi-1 => P) /\ P[hi]) *)
let split_last_index goal =
  match goal.node with
  | Forall (x, lo, hi, body) ->
      let prefix = forall x lo (app Sub [ hi; num 1 ]) body in
      let last = Formula.subst x hi body in
      Some (app Or [ app Lt [ hi; lo ]; app And [ prefix; last ] ])
  | _ -> None

(* first unresolved select-over-store node, for case splitting *)
let find_store_conflict goal =
  let found = ref None in
  Formula.iter
    (fun t ->
      match t.node with
      | App (Select, [ { node = App (Store, [ _; i; _ ]); _ }; j ])
        when Option.is_none !found && not (Formula.equal i j) ->
          found := Some (i, j)
      | _ -> ())
    goal;
  !found

let rec prove_goal sx cfg caps depth hyps goal : outcome =
  sx.sx_steps <- sx.sx_steps + 1;
  (* the clock is read on a level's first step and every 16th after it,
     so a level whose budget is zero searches nothing *)
  if sx.sx_steps land 15 = 1 && Clock.now () >= sx.sx_deadline then raise Deadline_hit;
  if sx.sx_steps > cfg.max_steps then Unknown "step budget exhausted"
  else if depth <= 0 then Unknown "depth budget exhausted"
  else
    let goal = Simplify.simplify goal in
    match goal.node with
    | Bool true -> Proved
    | Bool false -> Unknown "goal is false"
    | App (Implies, [ a; b ]) ->
        prove_goal sx cfg caps depth (Simplify.flatten_chain And (Simplify.simplify a) @ hyps) b
    | App (Or, [ a; b ]) -> (
        match prove_goal sx cfg caps (depth - 1) hyps a with
        | Proved -> Proved
        | _ -> (
            let not_a = Simplify.simplify (app Not [ a ]) in
            match prove_goal sx cfg caps (depth - 1) (not_a :: hyps) b with
            | Proved -> Proved
            | other -> other))
    | Forall (x, lo, hi, body) -> (
        (* resolved-under-binder form may match a hypothesis directly *)
        let reduced = Simplify.simplify (reduce_selects hyps goal) in
        if mem_term reduced hyps || is_true reduced then Proved
        else
          let split =
            if caps.c_induction then
              match split_last_index reduced with
              | Some g -> prove_goal sx cfg caps (depth - 1) hyps g
              | None -> Unknown "no split"
            else Unknown "induction not enabled"
          in
          match split with
          | Proved -> Proved
          | _ ->
              (* intro a fresh constant for the bound variable *)
              let c = fresh_const sx x in
              let hyps' = app Ge [ var c; lo ] :: app Le [ var c; hi ] :: hyps in
              prove_goal sx cfg caps (depth - 1) hyps' (Formula.subst x (var c) body))
    | _ -> (
        match split_conjuncts goal with
        | [ _ ] -> prove_atomic sx cfg caps depth hyps goal
        | parts ->
            let rec all = function
              | [] -> Proved
              | p :: rest -> (
                  match prove_goal sx cfg caps depth hyps p with
                  | Proved -> all rest
                  | other -> other)
            in
            all parts)

and prove_atomic sx cfg caps depth hyps goal : outcome =
  (* 1. syntactic entailment *)
  if mem_term goal hyps then Proved
  else
    (* 2. equational rewriting: variable equations, then function-contract
       equations, then arithmetic-aware select/store resolution *)
    let goal' = Simplify.simplify (rewrite_with_equalities hyps goal) in
    if is_true goal' || mem_term goal' hyps then Proved
    else
      let hyps =
        if not (Formula.equal goal' goal) then
          List.map (fun h -> Simplify.simplify (rewrite_with_equalities hyps h)) hyps
        else hyps
      in
      let goal' = Simplify.simplify (rewrite_with_uf_equations sx hyps goal') in
      if is_true goal' || mem_term goal' hyps then Proved
      else
        let goal' = Simplify.simplify (reduce_selects hyps goal') in
        let hyps = List.map (fun h -> Simplify.simplify (reduce_selects hyps h)) hyps in
        if is_true goal' || mem_term goal' hyps then Proved
        else if is_false goal' then Unknown "goal is false"
        else
          (* 3. ground evaluation *)
          match eval_ground_bool cfg goal' with
          | Some true -> Proved
          | Some false -> Unknown "goal evaluates to false"
          | None -> (
              (* 4. linear arithmetic: refute hyps /\ not goal *)
              let decided =
                match negation_constraints goal' with
                | Some neg ->
                    let lin_hyps = lin_constraints hyps in
                    let cs = cone_of_influence ~seed:neg lin_hyps in
                    fm_unsat (List.length (vars_of_constrs cs) + 8) cs
                | None -> (
                    match goal'.node with
                    | App (Eq, _) -> fm_implies hyps goal'
                    | _ -> false)
              in
              if decided then Proved
              else
                (* 5. capability: instantiate quantified hypotheses *)
                let after_inst =
                  if caps.c_instantiate
                     && List.exists (fun h -> match h.node with Forall _ -> true | _ -> false) hyps
                  then
                    let hyps' = discharge_guards sx cfg caps depth (instantiate_hyps hyps goal') in
                    if not (List.equal Formula.equal hyps' hyps) then
                      prove_with_hyps sx cfg caps (depth - 1) hyps' goal'
                    else Unknown "nothing to instantiate"
                  else Unknown "instantiation not enabled"
                in
                match after_inst with
                | Proved -> Proved
                | _ -> (
                    (* 6. capability: case-split an unresolved store index *)
                    let after_store =
                      if caps.c_induction then
                        match find_store_conflict goal' with
                        | Some (i, j) -> store_case_split sx cfg caps depth hyps goal' i j
                        | None -> Unknown "no store conflict"
                      else Unknown "store split not enabled"
                    in
                    match after_store with
                    | Proved -> Proved
                    | _ -> case_split sx cfg caps depth hyps goal'))

and prove_with_hyps sx cfg caps depth hyps goal =
  (* retry the cheap stages with enriched hypotheses *)
  if mem_term goal hyps then Proved
  else
    let goal' = Simplify.simplify (rewrite_with_equalities hyps goal) in
    let goal' = Simplify.simplify (reduce_selects hyps goal') in
    if is_true goal' || mem_term goal' hyps then Proved
    else
      let lin_ok =
        match negation_constraints goal' with
        | Some neg ->
            let lin_hyps = lin_constraints hyps in
            let cs = cone_of_influence ~seed:neg lin_hyps in
            fm_unsat (List.length (vars_of_constrs cs) + 8) cs
        | None -> (
            match goal'.node with App (Eq, _) -> fm_implies hyps goal' | _ -> false)
      in
      if lin_ok then Proved else case_split sx cfg caps depth hyps goal'

and store_case_split sx cfg caps depth hyps goal i j =
  let branches = [ app Eq [ i; j ]; app Lt [ i; j ]; app Gt [ i; j ] ] in
  let rec all = function
    | [] -> Proved
    | br :: rest -> (
        let hyps' = br :: hyps in
        (* skip infeasible branches *)
        let infeasible =
          let lin = lin_constraints hyps' in
          lin <> [] && fm_unsat 24 lin
        in
        if infeasible then all rest
        else
          match prove_goal sx cfg caps (depth - 1) hyps' goal with
          | Proved -> all rest
          | other -> other)
  in
  all branches

and discharge_guards sx cfg _caps depth hyps =
  (* a discharged instance's conjuncts are facts of their own, which the
     cheap stages match one by one *)
  List.concat_map
    (fun h ->
      match h.node with
      | App (Implies, [ guard; body ]) -> (
          match
            prove_goal sx cfg no_caps (depth - 1)
              (List.filter (fun x -> not (Formula.equal x h)) hyps)
              guard
          with
          | Proved -> Simplify.flatten_chain And body
          | _ -> [ h ])
      | _ -> [ h ])
    hyps

and case_split sx cfg caps depth hyps goal : outcome =
  (* bounded enumeration of a range-constrained free variable: variables of
     the goal first, then variables its hypotheses depend on (a bound like
     [r <= (nr - 10) / 2] only becomes usable once nr is concrete) *)
  let goal_vars = free_vars goal in
  let hyp_vars =
    List.concat_map
      (fun h ->
        let vs = free_vars h in
        if List.exists (fun v -> List.mem v goal_vars) vs then vs else [])
      hyps
  in
  let candidates = goal_vars @ List.filter (fun v -> not (List.mem v goal_vars)) hyp_vars in
  (* hypothesis-only variables get a tighter width cap: they are a fallback
     (e.g. nk making a division concrete), not a primary search dimension *)
  let width_cap x = if List.mem x goal_vars then cfg.max_split else 16 in
  let bounds = bounds_index hyps in
  let contradictory = ref false in
  let pick =
    List.find_map
      (fun x ->
        match bounds_lookup bounds x with
        | Some (lo, hi) when hi < lo ->
            (* empty range: the hypotheses are contradictory *)
            contradictory := true;
            None
        | Some (lo, hi) when hi - lo < width_cap x -> Some (x, lo, hi)
        | _ -> None)
      candidates
  in
  if !contradictory then Proved
  else
  match pick with
  | None ->
      (* last resort: contradictory linear hypotheses prove anything
         (infeasible symbolic path, e.g. the empty-loop fork) *)
      let lin = lin_constraints hyps in
      if lin <> [] && fm_unsat 24 lin then Proved
      else Unknown (Printf.sprintf "residual goal: %s" (to_string goal))
  | Some (x, lo, hi) ->
      let rec all i =
        if i > hi then Proved
        else
          let inst h = Simplify.simplify (Formula.subst x (num i) h) in
          let hyps' = List.map inst hyps in
          if List.exists is_false hyps' then all (i + 1) (* infeasible case *)
          else
            match prove_goal sx cfg caps (depth - 1) hyps' (Formula.subst x (num i) goal) with
            | Proved -> all (i + 1)
            | other -> other
      in
      all lo

(* ------------------------------------------------------------------ *)
(* Hints (interactive steps)                                           *)
(* ------------------------------------------------------------------ *)

let apply_unfold name formals body t =
  Formula.map
    (fun t ->
      match t.node with
      | App (Uf n, args) when String.equal n name && List.length args = List.length formals ->
          List.fold_left2 (fun acc x v -> Formula.subst x v acc) body formals args
      | _ -> t)
    t

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type proof_result = {
  pr_vc : vc;
  pr_outcome : outcome;
  pr_hints_used : int;
  pr_levels : int;
  pr_time : float;
  pr_steps : int;
}

let max_depth = 18

let prove_vc ?(cfg = default_config) ?(hints = []) vc : proof_result =
  let t0 = Clock.now () in
  let sx =
    { sx_deadline = infinity; sx_steps = 0; sx_consts = 0; sx_uf_rules = None }
  in
  (* intern the VC's terms into this domain's table first: the search then
     runs entirely on local nodes (O(1) equality, warm memo tables) even
     when the VC was generated by the coordinator domain *)
  let vc = Formula.localize_vc vc in
  let vc = Simplify.simplify_vc vc in
  (* unfold hints are structural rewrites, applied before proof *)
  let unfolds =
    List.filter_map (function Hint_unfold (n, fs, b) -> Some (n, fs, b) | _ -> None) hints
  in
  let apply_unfolds t =
    List.fold_left (fun t (n, fs, b) -> apply_unfold n fs b t) t unfolds
  in
  (* capability ladder: automatic first, then one more capability enabled
     at each level *)
  let enablers =
    List.filter_map
      (fun h ->
        match h with
        | Hint_apply_hyp -> Some (fun c -> { c with c_instantiate = true })
        | Hint_induction -> Some (fun c -> { c with c_induction = true })
        | Hint_unfold _ -> None)
      hints
  in
  let ladder =
    let _, levels =
      List.fold_left
        (fun (c, acc) f ->
          let c' = f c in
          (c', c' :: acc))
        (no_caps, []) enablers
    in
    no_caps :: List.rev levels
  in
  let with_unfold_step = unfolds <> [] in
  let hyps0 = List.map apply_unfolds vc.vc_hyps in
  let goal0 = apply_unfolds vc.vc_goal in
  (* [sx_steps] is reset per capability level; accumulate the total search
     effort across the whole ladder for profiling *)
  let total_steps = ref 0 in
  (* each level gets the whole deadline; a level that runs out moves on
     to the next, so the VC times out only if its last level did *)
  let rec try_ladder level = function
    | [] -> assert false
    | caps :: rest -> (
        sx.sx_steps <- 0;
        let t1 = Clock.now () in
        sx.sx_deadline <- Clock.deadline cfg.deadline_s;
        let result =
          try prove_goal sx cfg caps max_depth hyps0 goal0
          with Deadline_hit -> Timeout (Clock.elapsed t1)
        in
        total_steps := !total_steps + sx.sx_steps;
        match (result, rest) with
        | Proved, _ ->
            (Proved, (level + if with_unfold_step then 1 else 0), level + 1)
        | (Unknown _ | Timeout _), [] -> (result, level, level + 1)
        | (Unknown _ | Timeout _), _ -> try_ladder (level + 1) rest)
  in
  let outcome, used, levels = try_ladder 0 ladder in
  {
    pr_vc = vc;
    pr_outcome = outcome;
    pr_hints_used = used;
    pr_levels = levels;
    pr_time = Clock.elapsed t0;
    pr_steps = !total_steps;
  }

let is_proved r = match r.pr_outcome with Proved -> true | Unknown _ | Timeout _ -> false

let pp_outcome ppf = function
  | Proved -> Fmt.string ppf "proved"
  | Unknown r -> Fmt.pf ppf "unknown: %s" r
  | Timeout s -> Fmt.pf ppf "timeout after %.3fs" s
