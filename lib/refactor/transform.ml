(* Verification-refactoring framework (§5 of the paper).

   A transformation instance is selected (and parameterised) by the user;
   the transformer checks its applicability *mechanically* and applies it
   mechanically — exactly the contract of the paper's Stratego/XT-based
   transformer.  [Not_applicable] is the mechanical rejection.

   This module holds the framework types plus the syntactic machinery the
   transformation library is built from: template matching with
   metavariables (for reversing inlined functions / clone detection) and
   integer-literal skeletons (for loop rerolling). *)

open Minispark

exception Not_applicable of string

let reject fmt = Printf.ksprintf (fun s -> raise (Not_applicable s)) fmt

type category =
  | Reroll_loops
  | Move_conditional
  | Split_procedures
  | Adjust_loop_forms
  | Reverse_inlining
  | Separate_loops
  | Modify_computation    (** redundant / intermediate computations *)
  | Modify_storage        (** redundant / intermediate storage *)
  | Adjust_data_structures  (** case-study-specific (§6.2.1) *)
  | Reverse_table_lookups   (** case-study-specific (§6.2.1) *)

let category_name = function
  | Reroll_loops -> "rerolling loops"
  | Move_conditional -> "moving statements into or out of conditionals"
  | Split_procedures -> "splitting procedures"
  | Adjust_loop_forms -> "adjusting loop forms"
  | Reverse_inlining -> "reversing inlined functions or cloned code"
  | Separate_loops -> "separating loops"
  | Modify_computation -> "modifying redundant or intermediate computations"
  | Modify_storage -> "modifying redundant or intermediate storage"
  | Adjust_data_structures -> "adjusting data structures"
  | Reverse_table_lookups -> "reversing table lookups"

(* What a transformation asserts about its own step, for certification
   to check against the step's (before, after) pair rather than trust. *)
type claim =
  | Table_reversal of {
      table : string;
      index_var : string;
      replacement : Ast.expr;
      helpers : Ast.decl list;
    }
  | Extraction of { callee : string }
  | Renaming of { from_name : string; to_name : string }
  | Oracle_agreement of {
      target : string;
      trials : int;
      exhaustive : bool;
      fuel : int;
      before_digest : string;
      after_digest : string;
    }

type t = {
  tr_name : string;
  tr_category : category;
  tr_describe : string;
  tr_apply : Typecheck.env -> Ast.program -> Ast.program * claim option;
}

let make_claiming ~name ~category ~describe apply =
  { tr_name = name; tr_category = category; tr_describe = describe; tr_apply = apply }

let make ~name ~category ~describe apply =
  make_claiming ~name ~category ~describe (fun env program -> (apply env program, None))

(** Apply with a mechanical applicability check: the transformed program
    must still type-check (transformations that break static semantics are
    rejected, not silently produced).  Both halves — the rewrite (which
    runs the applicability checks) and the full re-typecheck — get their
    own [cat_transform] span and counter, so the profiler can say how
    much of a transformation's cost is matching versus re-checking. *)
let apply (tr : t) env program =
  let attrs =
    [
      ("transform", Telemetry.S tr.tr_name);
      ("category", Telemetry.S (category_name tr.tr_category));
    ]
  in
  let program', claim =
    Telemetry.with_span ~cat:Telemetry.cat_transform ~attrs "rewrite" (fun () ->
        Telemetry.count "transform_rewrites";
        tr.tr_apply env program)
  in
  Telemetry.with_span ~cat:Telemetry.cat_transform ~attrs "retypecheck"
    (fun () ->
      Telemetry.count "transform_retypechecks";
      (* the incoming (env, program) pair is always the result of a prior
         check/check_incremental, so the incremental precondition holds;
         declarations the rewrite left physically untouched re-check for
         free *)
      match Typecheck.check_incremental ~baseline:(env, program) program' with
      | env', checked -> (env', checked, claim)
      | exception Typecheck.Type_error msg ->
          reject "%s: transformed program does not type-check: %s" tr.tr_name msg)

(* ------------------------------------------------------------------ *)
(* Template matching with metavariables                                *)
(* ------------------------------------------------------------------ *)

(* A template is an ordinary expression / statement list in which the given
   metavariable names stand for arbitrary expressions.  Matching produces a
   consistent substitution. *)

type bindings = (string * Ast.expr) list

let bind (subst : bindings) x e : bindings option =
  match List.assoc_opt x subst with
  | Some e' -> if Ast.equal_expr e e' then Some subst else None
  | None -> Some ((x, e) :: subst)

let rec match_expr ~metas (template : Ast.expr) (e : Ast.expr) (subst : bindings) :
    bindings option =
  match (template, e) with
  | Ast.Var x, _ when List.mem x metas -> bind subst x e
  | Ast.Bool_lit a, Ast.Bool_lit b -> if a = b then Some subst else None
  | Ast.Int_lit a, Ast.Int_lit b -> if a = b then Some subst else None
  | Ast.Var a, Ast.Var b -> if String.equal a b then Some subst else None
  | Ast.Old a, Ast.Old b -> if String.equal a b then Some subst else None
  | Ast.Result, Ast.Result -> Some subst
  | Ast.Index (a1, i1), Ast.Index (a2, i2) ->
      Option.bind (match_expr ~metas a1 a2 subst) (match_expr ~metas i1 i2)
  | Ast.Unop (o1, a1), Ast.Unop (o2, a2) when o1 = o2 -> match_expr ~metas a1 a2 subst
  | Ast.Binop (o1, a1, b1), Ast.Binop (o2, a2, b2) when o1 = o2 ->
      Option.bind (match_expr ~metas a1 a2 subst) (match_expr ~metas b1 b2)
  | Ast.Call (f1, args1), Ast.Call (f2, args2)
    when String.equal f1 f2 && List.length args1 = List.length args2 ->
      List.fold_left2
        (fun acc a b -> Option.bind acc (match_expr ~metas a b))
        (Some subst) args1 args2
  | Ast.Aggregate es1, Ast.Aggregate es2 when List.length es1 = List.length es2 ->
      List.fold_left2
        (fun acc a b -> Option.bind acc (match_expr ~metas a b))
        (Some subst) es1 es2
  | Ast.Quantified (q1, x1, lo1, hi1, b1), Ast.Quantified (q2, x2, lo2, hi2, b2)
    when q1 = q2 && String.equal x1 x2 ->
      Option.bind
        (Option.bind (match_expr ~metas lo1 lo2 subst) (match_expr ~metas hi1 hi2))
        (match_expr ~metas b1 b2)
  | _ -> None

let rec match_lvalue ~metas (template : Ast.lvalue) (lv : Ast.lvalue) subst =
  match (template, lv) with
  | Ast.Lvar x, Ast.Lvar y when List.mem x metas ->
      (* an lvalue metavariable can only stand for a variable *)
      bind subst x (Ast.Var y)
  | Ast.Lvar a, Ast.Lvar b -> if String.equal a b then Some subst else None
  | Ast.Lindex (l1, i1), Ast.Lindex (l2, i2) ->
      Option.bind (match_lvalue ~metas l1 l2 subst) (match_expr ~metas i1 i2)
  | Ast.Lvar x, Ast.Lindex _ when List.mem x metas ->
      (* allow a metavariable target to match an indexed target *)
      bind subst x (Ast.expr_of_lvalue lv)
  | _ -> None

let rec match_stmt ~metas (template : Ast.stmt) (s : Ast.stmt) subst : bindings option =
  match (template, s) with
  | Ast.Null, Ast.Null -> Some subst
  | Ast.Assign (lv1, e1), Ast.Assign (lv2, e2) ->
      Option.bind (match_lvalue ~metas lv1 lv2 subst) (match_expr ~metas e1 e2)
  | Ast.If (br1, els1), Ast.If (br2, els2) when List.length br1 = List.length br2 ->
      let branches =
        List.fold_left2
          (fun acc (g1, b1) (g2, b2) ->
            Option.bind acc (fun subst ->
                Option.bind (match_expr ~metas g1 g2 subst) (match_stmts ~metas b1 b2)))
          (Some subst) br1 br2
      in
      Option.bind branches (match_stmts ~metas els1 els2)
  | Ast.For f1, Ast.For f2
    when String.equal f1.Ast.for_var f2.Ast.for_var
         && f1.Ast.for_reverse = f2.Ast.for_reverse ->
      Option.bind
        (Option.bind (match_expr ~metas f1.Ast.for_lo f2.Ast.for_lo subst)
           (match_expr ~metas f1.Ast.for_hi f2.Ast.for_hi))
        (match_stmts ~metas f1.Ast.for_body f2.Ast.for_body)
  | Ast.While w1, Ast.While w2 ->
      Option.bind
        (match_expr ~metas w1.Ast.while_cond w2.Ast.while_cond subst)
        (match_stmts ~metas w1.Ast.while_body w2.Ast.while_body)
  | Ast.Call_stmt (f1, a1), Ast.Call_stmt (f2, a2)
    when String.equal f1 f2 && List.length a1 = List.length a2 ->
      List.fold_left2
        (fun acc a b -> Option.bind acc (match_expr ~metas a b))
        (Some subst) a1 a2
  | Ast.Return (Some e1), Ast.Return (Some e2) -> match_expr ~metas e1 e2 subst
  | Ast.Return None, Ast.Return None -> Some subst
  | Ast.Assert e1, Ast.Assert e2 -> match_expr ~metas e1 e2 subst
  | _ -> None

and match_stmts ~metas t s subst =
  if List.length t <> List.length s then None
  else
    List.fold_left2
      (fun acc a b -> Option.bind acc (match_stmt ~metas a b))
      (Some subst) t s

(* ------------------------------------------------------------------ *)
(* Integer-literal skeletons (for loop rerolling)                      *)
(* ------------------------------------------------------------------ *)

(* Replace every integer literal in a statement list by a placeholder and
   collect the literals in a canonical traversal order.  Two statement
   groups that differ only in literals have equal skeletons. *)

let literal_skeleton (stmts : Ast.stmt list) : Ast.stmt list * int list =
  let literals = ref [] in
  let strip =
    Ast.map_expr (function
      | Ast.Int_lit n ->
          literals := n :: !literals;
          Ast.Int_lit 0
      | e -> e)
  in
  (* map_own_exprs applies [strip] once per attached expression *)
  let stmts' = Ast.map_stmts (fun s -> [ Ast.map_own_exprs strip s ]) stmts in
  (stmts', List.rev !literals)

(* Rebuild a statement list from a skeleton, replacing the k-th literal
   placeholder with [gen k]. *)
let rebuild_literals (skeleton : Ast.stmt list) (gen : int -> Ast.expr) : Ast.stmt list =
  let counter = ref 0 in
  let fill =
    Ast.map_expr (function
      | Ast.Int_lit 0 ->
          let k = !counter in
          incr counter;
          gen k
      | e -> e)
  in
  Ast.map_stmts (fun s -> [ Ast.map_own_exprs fill s ]) skeleton

(* An affine description of how one literal position varies across groups. *)
type affine = { base : int; step : int }

(** Fit each literal position across [groups] to an affine function of the
    group number; [None] if any position is not affine.  All groups must
    share the same skeleton (first component of the result). *)
let affine_analysis (groups : (Ast.stmt list * int list) list) :
    (Ast.stmt list * affine list) option =
  match groups with
  | [] | [ _ ] -> None
  | (skel0, lits0) :: rest ->
      if List.exists (fun (s, _) -> not (Ast.equal_stmts s skel0)) rest then None
      else if List.exists (fun (_, l) -> List.length l <> List.length lits0) rest then None
      else
        let columns =
          List.mapi
            (fun pos v0 ->
              let values = v0 :: List.map (fun (_, l) -> List.nth l pos) rest in
              values)
            lits0
        in
        let fit values =
          match values with
          | v0 :: v1 :: _ ->
              let step = v1 - v0 in
              let ok =
                List.for_all2
                  (fun v k -> v = v0 + (step * k))
                  values
                  (List.init (List.length values) (fun k -> k))
              in
              if ok then Some { base = v0; step } else None
          | _ -> None
        in
        let fits = List.map fit columns in
        if List.exists Option.is_none fits then None
        else Some (skel0, List.map Option.get fits)

(* ------------------------------------------------------------------ *)
(* Expression folding                                                  *)
(* ------------------------------------------------------------------ *)

(* Linear constant folding for MiniSpark expressions: enough to recognise
   that a loop body instantiated at a literal index equals its unrolled
   clone (e.g. [4 * 4 + 8] vs [24]) and to tidy reindexed loop bodies. *)
let rec linear e : ((Ast.expr * int) list * int) option =
  match e with
  | Ast.Int_lit n -> Some ([], n)
  | Ast.Binop (Ast.Add, a, b) -> lin2 a b (fun (xs, c) (ys, d) -> (merge xs ys, c + d))
  | Ast.Binop (Ast.Sub, a, b) ->
      lin2 a b (fun (xs, c) (ys, d) ->
          (merge xs (List.map (fun (t, k) -> (t, -k)) ys), c - d))
  | Ast.Binop (Ast.Mul, Ast.Int_lit k, b) -> scale k b
  | Ast.Binop (Ast.Mul, a, Ast.Int_lit k) -> scale k a
  | Ast.Unop (Ast.Neg, a) -> scale (-1) a
  | _ -> Some ([ (e, 1) ], 0)
and scale k e =
  Option.map
    (fun (xs, c) -> (List.map (fun (t, j) -> (t, j * k)) xs, c * k))
    (linear e)
and lin2 a b f =
  match (linear a, linear b) with
  | Some la, Some lb -> Some (f la lb)
  | _ -> None
and merge xs ys =
  List.fold_left
    (fun acc (t, k) ->
      match List.assoc_opt t acc with
      | Some k' -> (t, k + k') :: List.remove_assoc t acc
      | None -> (t, k) :: acc)
    xs ys
  |> List.filter (fun (_, k) -> k <> 0)

let fold_expr e =
  let rebuild (atoms, c) =
    let atoms = List.sort compare atoms in
    let term (t, k) =
      if k = 1 then t
      else if k = -1 then Ast.Unop (Ast.Neg, t)
      else Ast.Binop (Ast.Mul, Ast.Int_lit k, t)
    in
    match atoms with
    | [] -> Ast.Int_lit c
    | first :: rest ->
        let base =
          List.fold_left (fun acc at -> Ast.Binop (Ast.Add, acc, term at)) (term first) rest
        in
        if c = 0 then base
        else if c > 0 then Ast.Binop (Ast.Add, base, Ast.Int_lit c)
        else Ast.Binop (Ast.Sub, base, Ast.Int_lit (-c))
  in
  Ast.map_expr
    (fun e ->
      match e with
      | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul), _, _) | Ast.Unop (Ast.Neg, _) -> (
          match linear e with
          | Some lf ->
              let e' = rebuild lf in
              if e' = e then e else e'
          | None -> e)
      | Ast.Binop (Ast.Div, Ast.Int_lit a, Ast.Int_lit b) when b <> 0 ->
          Ast.Int_lit (a / b)
      | Ast.Binop (Ast.Mod, Ast.Int_lit a, Ast.Int_lit b) when b <> 0 ->
          Ast.Int_lit (((a mod b) + abs b) mod abs b)
      | Ast.Index (Ast.Aggregate es, Ast.Int_lit k) when k >= 0 && k < List.length es ->
          List.nth es k
      | e -> e)
    e

(* the atoms of the linear tree rooted at [e], as [linear] reads it *)
let rec linear_atoms (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ -> []
  | Ast.Binop ((Ast.Add | Ast.Sub), a, b) -> linear_atoms a @ linear_atoms b
  | Ast.Binop (Ast.Mul, Ast.Int_lit _, b) -> linear_atoms b
  | Ast.Binop (Ast.Mul, a, Ast.Int_lit _) -> linear_atoms a
  | Ast.Unop (Ast.Neg, a) -> linear_atoms a
  | e -> [ e ]

let fold_discards e =
  let discards = ref false in
  Ast.iter_expr
    (fun e ->
      match e with
      | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul), _, _) | Ast.Unop (Ast.Neg, _) -> (
          match linear e with
          | Some (kept, _) ->
              if List.exists (fun a -> not (List.mem_assoc a kept)) (linear_atoms e) then
                discards := true
          | None -> ())
      | Ast.Index (Ast.Aggregate (_ :: _ :: _), Ast.Int_lit _) -> discards := true
      | _ -> ())
    e;
  !discards

let fold_stmts stmts =
  Ast.map_stmts (fun s -> [ Ast.map_own_exprs fold_expr s ]) stmts

(* ------------------------------------------------------------------ *)
(* Dataflow helpers shared by the library                              *)
(* ------------------------------------------------------------------ *)

(** Indices of out-mode parameters of a named subprogram. *)
let out_param_indices program name =
  match Ast.find_sub program name with
  | Some callee ->
      List.mapi (fun k (p : Ast.param) -> (k, p.Ast.par_mode)) callee.Ast.sub_params
      |> List.filter_map (fun (k, m) ->
             match m with
             | Ast.Mode_out | Ast.Mode_in_out -> Some k
             | Ast.Mode_in -> None)
  | None -> []

let written_vars program stmts =
  Ast.written_vars ~out_params_of:(out_param_indices program) stmts

let read_vars = Ast.read_vars

let quantifier_vars e =
  let acc = ref [] in
  Ast.iter_expr (function Ast.Quantified (_, v, _, _, _) -> acc := v :: !acc | _ -> ()) e;
  !acc

(* the loop and quantifier variables a statement list binds *)
let stmt_binders ss =
  let acc = ref [] in
  Ast.iter_stmts
    (fun st ->
      Ast.iter_own_exprs (fun e -> acc := quantifier_vars e @ !acc) st;
      match st with Ast.For fl -> acc := fl.Ast.for_var :: !acc | _ -> ())
    ss;
  !acc

(* names a subprogram binds: parameters, locals, loop and quantifier
   variables *)
let bound_names (s : Ast.subprogram) =
  List.map (fun (p : Ast.param) -> p.Ast.par_name) s.Ast.sub_params
  @ List.map (fun (v : Ast.var_decl) -> v.Ast.v_name) s.Ast.sub_locals
  @ List.concat_map quantifier_vars (Option.to_list s.Ast.sub_pre @ Option.to_list s.Ast.sub_post)
  @ stmt_binders s.Ast.sub_body

(* does every evaluation of [e] evaluate variable [x]?  Only the left
   operand of a short-circuit operator is sure to run *)
let rec always_evaluates x (e : Ast.expr) =
  match e with
  | Ast.Var v -> String.equal v x
  | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Old _ | Ast.Result -> false
  | Ast.Binop ((Ast.And_then | Ast.Or_else), a, _) -> always_evaluates x a
  | Ast.Index (a, b) | Ast.Binop (_, a, b) -> always_evaluates x a || always_evaluates x b
  | Ast.Unop (_, a) -> always_evaluates x a
  | Ast.Call (_, args) | Ast.Aggregate args -> List.exists (always_evaluates x) args
  | Ast.Quantified (_, _, lo, hi, _) -> always_evaluates x lo || always_evaluates x hi

let slice body ~from ~len =
  if from < 0 || len < 0 || from + len > List.length body then
    reject "statement slice %d..%d out of range" from (from + len - 1);
  List.filteri (fun k _ -> k >= from && k < from + len) body

let splice body ~from ~len replacement =
  let before = List.filteri (fun k _ -> k < from) body in
  let after = List.filteri (fun k _ -> k >= from + len) body in
  before @ replacement @ after
