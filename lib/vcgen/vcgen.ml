(* Verification-condition generation for MiniSpark — the stand-in for the
   SPARK Examiner.

   Per subprogram, a forward symbolic execution between cut points (entry,
   asserts, loop invariants, exit) produces VCs for:
   - the postcondition on every path reaching the exit;
   - callee preconditions at every call site;
   - loop-invariant establishment and preservation;
   - [Assert] statements;
   - exception freedom: array index checks, range checks on assignments to
     range-subtyped objects, and division-by-zero checks.

   Resource accounting reproduces the paper's observation that unrolled,
   optimised code makes VC generation explode: every symbolic term carries a
   size estimate (the node count of its fully unfolded tree, which is what
   printing the VC would produce) and generation aborts with [Infeasible]
   when a per-VC or total budget is exceeded — the analogue of the SPARK
   tools running out of memory on the original AES (§6.2.2). *)

open Minispark
module F = Logic.Formula

exception Infeasible of string
(** VC generation exceeded its resource budget. *)

(* The whole-program cap tripped.  A subprogram over its own path or
   per-VC budget is skipped and [generate] goes on with the rest; this
   one stops it.  Public entry points raise it as [Infeasible]. *)
exception Over_total of string

let as_infeasible f = try f () with Over_total reason -> raise (Infeasible reason)

type budget = {
  max_vc_nodes : int;      (** per-VC unfolded node cap *)
  max_total_nodes : int;   (** whole-program cap *)
  max_paths : int;         (** per-subprogram symbolic path cap *)
}

let default_budget =
  { max_vc_nodes = 6_000_000; max_total_nodes = 40_000_000; max_paths = 64 }

(* A term with the node count of its fully-unfolded tree (terms share
   subtrees in memory; the estimate is what printing would cost). *)
type sized = { t : F.t; n : int }

let leaf t = { t; n = 1 }
let app1 op a = { t = F.app op [ a.t ]; n = a.n + 1 }
let app2 op a b = { t = F.app op [ a.t; b.t ]; n = a.n + b.n + 1 }
let app3 op a b c = { t = F.app op [ a.t; b.t; c.t ]; n = a.n + b.n + c.n + 1 }

type sym_state = {
  bindings : (string * sized) list;  (** program variable -> current term *)
  hyps : sized list;                 (** reversed hypothesis list *)
}

type gen = {
  env : Typecheck.env;
  program : Ast.program;
  budget : budget;
  mutable total_nodes : int;
  mutable fresh : int;
  mutable vcs : F.vc list;
  mutable sizes : (string * int) list;  (** vc name -> unfolded node count *)
  sub : Ast.subprogram;
  var_types : (string * Ast.typ) list;  (** resolved types of all visible objects *)
}

let fresh_name g base =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "%s__%d" base g.fresh

(* ------------------------------------------------------------------ *)
(* Types of expressions (resolved, lightweight)                        *)
(* ------------------------------------------------------------------ *)

let rec type_of g (e : Ast.expr) : Ast.typ =
  match e with
  | Ast.Bool_lit _ -> Ast.Tbool
  | Ast.Int_lit _ -> Ast.Tint None
  | Ast.Var x | Ast.Old x -> (
      match List.assoc_opt x g.var_types with
      | Some t -> t
      | None -> Ast.Tint None (* loop variables and havoc symbols *))
  | Ast.Result -> (
      match g.sub.Ast.sub_return with
      | Some t -> Typecheck.resolve g.env t
      | None -> Ast.Tint None)
  | Ast.Index (a, _) -> (
      match type_of g a with
      | Ast.Tarray (_, _, elt) -> elt
      | _ -> Ast.Tint None)
  | Ast.Unop (Ast.Not, a) -> type_of g a
  | Ast.Unop (Ast.Neg, a) -> type_of g a
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) -> (
      match (type_of g a, type_of g b) with
      | Ast.Tmod m, _ | _, Ast.Tmod m -> Ast.Tmod m
      | _ -> Ast.Tint None)
  | Ast.Binop ((Ast.Band | Ast.Bor | Ast.Bxor), a, b) -> (
      match (type_of g a, type_of g b) with
      | Ast.Tmod m, _ | _, Ast.Tmod m -> Ast.Tmod m
      | Ast.Tbool, _ -> Ast.Tbool
      | _ -> Ast.Tint None)
  | Ast.Binop ((Ast.Shl | Ast.Shr), a, _) -> type_of g a
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _)
  | Ast.Binop ((Ast.And | Ast.Or | Ast.And_then | Ast.Or_else), _, _)
  | Ast.Quantified _ ->
      Ast.Tbool
  | Ast.Call (name, _) -> (
      match Ast.find_sub g.program name with
      | Some { Ast.sub_return = Some t; _ } -> Typecheck.resolve g.env t
      | _ -> Ast.Tint None)
  | Ast.Aggregate es -> Ast.Tarray (0, List.length es - 1, Ast.Tint None)

let modulus_of g e = match type_of g e with Ast.Tmod m -> m | _ -> 0

(* ------------------------------------------------------------------ *)
(* Expression translation                                              *)
(* ------------------------------------------------------------------ *)

let lookup_binding st x =
  match List.assoc_opt x st.bindings with
  | Some s -> s
  | None -> leaf (F.var x)

(* [old_prefix]: how to translate [Old x] — entry-value symbol. *)
let old_sym x = x ^ "~"

let rec tr g st (e : Ast.expr) : sized =
  match e with
  | Ast.Bool_lit b -> leaf (F.bool_ b)
  | Ast.Int_lit n -> leaf (F.num n)
  | Ast.Var x -> lookup_binding st x
  | Ast.Old x -> leaf (F.var (old_sym x))
  | Ast.Result -> leaf (F.var "result!")
  | Ast.Index (a, i) -> app2 F.Select (tr g st a) (tr g st i)
  | Ast.Unop (Ast.Neg, a) ->
      let m = modulus_of g a in
      let base = app1 F.Neg (tr g st a) in
      if m > 0 then app1 (F.Wrap m) base else base
  | Ast.Unop (Ast.Not, a) -> (
      match type_of g a with
      | Ast.Tmod m -> app1 (F.Bnot m) (tr g st a)
      | _ -> app1 F.Not (tr g st a))
  | Ast.Binop (op, a, b) -> tr_binop g st op a b
  | Ast.Call (name, args) -> (
      let args' = List.map (tr g st) args in
      let t = F.app (F.Uf name) (List.map (fun s -> s.t) args') in
      let n = List.fold_left (fun acc s -> acc + s.n) 1 args' in
      match () with () -> { t; n })
  | Ast.Aggregate es ->
      let es' = List.map (tr g st) es in
      { t = F.app (F.Arrlit 0) (List.map (fun s -> s.t) es');
        n = List.fold_left (fun acc s -> acc + s.n) 1 es' }
  | Ast.Quantified (q, x, lo, hi, body) ->
      let lo' = tr g st lo and hi' = tr g st hi in
      (* the bound variable must not be captured by current bindings *)
      let st' = { st with bindings = List.remove_assoc x st.bindings } in
      let body' = tr g st' body in
      let mk =
        match q with
        | Ast.Forall -> fun l h b -> F.forall x l h b
        | Ast.Exists -> fun l h b -> F.exists x l h b
      in
      { t = mk lo'.t hi'.t body'.t; n = lo'.n + hi'.n + body'.n + 1 }

and tr_binop g st op a b =
  let wrap_mod m s = if m > 0 then app1 (F.Wrap m) s else s in
  let m () =
    match (type_of g a, type_of g b) with
    | Ast.Tmod m, _ | _, Ast.Tmod m -> m
    | _ -> 0
  in
  let ta = tr g st a and tb = tr g st b in
  match op with
  | Ast.Add -> wrap_mod (m ()) (app2 F.Add ta tb)
  | Ast.Sub -> wrap_mod (m ()) (app2 F.Sub ta tb)
  | Ast.Mul -> wrap_mod (m ()) (app2 F.Mul ta tb)
  | Ast.Div -> wrap_mod (m ()) (app2 F.Div ta tb)
  | Ast.Mod -> wrap_mod (m ()) (app2 F.Mod_op ta tb)
  | Ast.Eq -> app2 F.Eq ta tb
  | Ast.Ne -> app2 F.Ne ta tb
  | Ast.Lt -> app2 F.Lt ta tb
  | Ast.Le -> app2 F.Le ta tb
  | Ast.Gt -> app2 F.Gt ta tb
  | Ast.Ge -> app2 F.Ge ta tb
  | Ast.And | Ast.And_then -> (
      match type_of g a with
      | Ast.Tmod mm -> app2 (F.Band mm) ta tb
      | _ -> app2 F.And ta tb)
  | Ast.Or | Ast.Or_else -> (
      match type_of g a with
      | Ast.Tmod mm -> app2 (F.Bor mm) ta tb
      | _ -> app2 F.Or ta tb)
  | Ast.Band -> app2 (F.Band (m ())) ta tb
  | Ast.Bor -> app2 (F.Bor (m ())) ta tb
  | Ast.Bxor -> (
      match type_of g a with
      | Ast.Tbool -> app2 (F.Bxor 0) ta tb
      | _ -> app2 (F.Bxor (m ())) ta tb)
  | Ast.Shl -> app2 (F.Shl (m ())) ta tb
  | Ast.Shr -> app2 (F.Shr (m ())) ta tb

(* ------------------------------------------------------------------ *)
(* VC emission                                                         *)
(* ------------------------------------------------------------------ *)

let emit g st kind goal_sized =
  let hyp_nodes = List.fold_left (fun acc h -> acc + h.n) 0 st.hyps in
  let vc_nodes = hyp_nodes + goal_sized.n in
  if vc_nodes > g.budget.max_vc_nodes then
    raise (Infeasible
             (Printf.sprintf "VC in %s exceeds per-VC budget (%d nodes)"
                g.sub.Ast.sub_name vc_nodes));
  g.total_nodes <- g.total_nodes + vc_nodes;
  if g.total_nodes > g.budget.max_total_nodes then
    raise (Over_total
             (Printf.sprintf "total VC budget exceeded in %s" g.sub.Ast.sub_name));
  let name = Printf.sprintf "%s.%d" g.sub.Ast.sub_name (List.length g.vcs + 1) in
  let vc =
    {
      F.vc_name = name;
      vc_sub = g.sub.Ast.sub_name;
      vc_kind = kind;
      vc_hyps = List.rev_map (fun h -> h.t) st.hyps;
      vc_goal = goal_sized.t;
    }
  in
  g.vcs <- vc :: g.vcs;
  g.sizes <- (name, vc_nodes) :: g.sizes

let add_hyp st h = { st with hyps = h :: st.hyps }

let set_var st x s = { st with bindings = (x, s) :: List.remove_assoc x st.bindings }

(* type-derived range facts for a symbol; nested array levels quantify
   over distinct bound variables *)
let rec range_fact ?(depth = 0) g (t : Ast.typ) (sym : F.t) : F.t option =
  match t with
  | Ast.Tint (Some (lo, hi)) ->
      Some (F.app F.And [ F.app F.Ge [ sym; F.num lo ];
                          F.app F.Le [ sym; F.num hi ] ])
  | Ast.Tmod m ->
      Some (F.app F.And [ F.app F.Ge [ sym; F.num 0 ];
                          F.app F.Lt [ sym; F.num m ] ])
  | Ast.Tarray (lo, hi, elt) -> (
      let k = Printf.sprintf "k!%d" depth in
      match range_fact ~depth:(depth + 1) g elt (F.select sym (F.var k)) with
      | Some body -> Some (F.forall k (F.num lo) (F.num hi) body)
      | None -> None)
  | Ast.Tbool | Ast.Tint None | Ast.Tnamed _ -> None

let sized_of_formula f = { t = f; n = F.node_count f }

(* havoc a variable: bind to a fresh symbol, with its type range assumed *)
let havoc g st x =
  let sym = fresh_name g x in
  let st = set_var st x (leaf (F.var sym)) in
  match List.assoc_opt x g.var_types with
  | Some t -> (
      match range_fact g t (F.var sym) with
      | Some fact -> add_hyp st (sized_of_formula fact)
      | None -> st)
  | None -> st

(* ------------------------------------------------------------------ *)
(* Exception-freedom checks inside expressions                          *)
(* ------------------------------------------------------------------ *)

let rec check_expr_safety g st (e : Ast.expr) =
  match e with
  | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Var _ | Ast.Old _ | Ast.Result -> ()
  | Ast.Index (a, i) -> (
      check_expr_safety g st a;
      check_expr_safety g st i;
      match type_of g a with
      | Ast.Tarray (lo, hi, _) ->
          let ti = tr g st i in
          let goal =
            app2 F.And
              (app2 F.Ge ti (leaf (F.num lo)))
              (app2 F.Le ti (leaf (F.num hi)))
          in
          emit g st F.Vc_index_check goal
      | _ -> ())
  | Ast.Unop (_, a) -> check_expr_safety g st a
  | Ast.Binop ((Ast.Div | Ast.Mod), a, b) ->
      check_expr_safety g st a;
      check_expr_safety g st b;
      emit g st F.Vc_div_check (app2 F.Ne (tr g st b) (leaf (F.num 0)))
  | Ast.Binop (_, a, b) ->
      check_expr_safety g st a;
      check_expr_safety g st b
  | Ast.Call (name, args) ->
      List.iter (check_expr_safety g st) args;
      emit_call_pre g st name args
  | Ast.Aggregate es -> List.iter (check_expr_safety g st) es
  | Ast.Quantified (_, _, lo, hi, _) ->
      (* quantified bodies appear in annotations; bounds still checked *)
      check_expr_safety g st lo;
      check_expr_safety g st hi

and emit_call_pre g st name args =
  match Ast.find_sub g.program name with
  | Some callee -> (
      match callee.Ast.sub_pre with
      | None -> ()
      | Some pre ->
          (* substitute actuals for formals in the precondition *)
          let subst_env =
            List.map2
              (fun (p : Ast.param) a -> (p.Ast.par_name, a))
              callee.Ast.sub_params args
          in
          let pre' = Ast.subst_expr subst_env pre in
          emit g st F.Vc_precondition_call (tr g st pre'))
  | None -> ()

(* assume the contract of a called function at an applied occurrence *)
let assume_function_posts g st (e : Ast.expr) =
  let st_ref = ref st in
  Ast.iter_expr
    (fun sub_e ->
      match sub_e with
      | Ast.Call (name, args) -> (
          match Ast.find_sub g.program name with
          | Some callee -> (
              match callee.Ast.sub_post with
              | None -> ()
              | Some post ->
                  let subst_env =
                    List.map2
                      (fun (p : Ast.param) a -> (p.Ast.par_name, a))
                      callee.Ast.sub_params args
                  in
                  let post' = Ast.subst_expr subst_env post in
                  (* Result -> the application itself *)
                  let post' =
                    Ast.map_expr
                      (function Ast.Result -> sub_e | x -> x)
                      post'
                  in
                  st_ref := add_hyp !st_ref (tr g !st_ref post'))
          | None -> ())
      | _ -> ())
    e;
  !st_ref

(* ------------------------------------------------------------------ *)
(* Statement-level symbolic execution                                  *)
(* ------------------------------------------------------------------ *)

(* Represent an assignment target path: translate nested stores. *)
let rec store_path g st (lv : Ast.lvalue) (value : sized) : string * sized =
  match lv with
  | Ast.Lvar x -> (x, value)
  | Ast.Lindex (lv', i) ->
      let cur = tr g st (Ast.expr_of_lvalue lv') in
      let ti = tr g st i in
      store_path g st lv' (app3 F.Store cur ti value)

let range_check_assign g st (t : Ast.typ) (value : sized) =
  match t with
  | Ast.Tint (Some (lo, hi)) ->
      let goal =
        app2 F.And
          (app2 F.Ge value (leaf (F.num lo)))
          (app2 F.Le value (leaf (F.num hi)))
      in
      emit g st F.Vc_range_check goal
  | _ -> ()

let rec lvalue_type g (lv : Ast.lvalue) : Ast.typ =
  match lv with
  | Ast.Lvar x -> (
      match List.assoc_opt x g.var_types with
      | Some t -> t
      | None -> Ast.Tint None)
  | Ast.Lindex (lv', _) -> (
      match lvalue_type g lv' with
      | Ast.Tarray (_, _, elt) -> elt
      | _ -> Ast.Tint None)

(* Each statement transforms a list of live paths.  Paths that return are
   finalised immediately (postcondition VC for functions). *)
type path = sym_state

let rec exec_stmt g (paths : path list) (stmt : Ast.stmt) : path list =
  if List.length paths > g.budget.max_paths then
    raise (Infeasible (Printf.sprintf "path explosion in %s" g.sub.Ast.sub_name));
  match stmt with
  | Ast.Null -> paths
  | Ast.Assert e ->
      List.map
        (fun st ->
          check_expr_safety g st e;
          let st = assume_function_posts g st e in
          emit g st F.Vc_assert (tr g st e);
          add_hyp st (tr g st e))
        paths
  | Ast.Assign (lv, e) ->
      List.map
        (fun st ->
          check_expr_safety g st (Ast.expr_of_lvalue lv);
          check_expr_safety g st e;
          let st = assume_function_posts g st e in
          let value = tr g st e in
          range_check_assign g st (lvalue_type g lv) value;
          (* index checks on the target were done via expr_of_lvalue above *)
          let x, stored = store_path g st lv value in
          set_var st x stored)
        paths
  | Ast.If (branches, els) ->
      List.concat_map
        (fun st ->
          let rec go st_nots branches =
            match branches with
            | [] ->
                let st' = List.fold_left add_hyp st st_nots in
                exec_stmts g [ st' ] els
            | (guard, body) :: rest ->
                check_expr_safety g st guard;
                let st_g = assume_function_posts g st guard in
                let tg = tr g st_g guard in
                let taken = List.fold_left add_hyp st_g st_nots in
                let taken = add_hyp taken tg in
                let this_paths = exec_stmts g [ taken ] body in
                let not_g = app1 F.Not tg in
                this_paths @ go (not_g :: st_nots) rest
          in
          go [] branches)
        paths
  | Ast.For fl -> List.concat_map (fun st -> exec_for g st fl) paths
  | Ast.While wl -> List.concat_map (fun st -> exec_while g st wl) paths
  | Ast.Return e ->
      List.iter
        (fun st ->
          (match e with
          | Some e ->
              check_expr_safety g st e;
              let st = assume_function_posts g st e in
              finalize_post g st ~result:(Some (tr g st e))
          | None -> finalize_post g st ~result:None))
        paths;
      [] (* path ends *)
  | Ast.Call_stmt (name, args) ->
      List.map (fun st -> exec_call g st name args) paths

and exec_stmts g paths stmts = List.fold_left (exec_stmt g) paths stmts

and exec_call g st name args =
  List.iter (fun a -> check_expr_safety g st a) args;
  emit_call_pre g st name args;
  match Ast.find_sub g.program name with
  | None -> st
  | Some callee ->
      (* snapshot in-going actual values for Old in the callee post *)
      let formals = callee.Ast.sub_params in
      let pre_values =
        List.map2 (fun (p : Ast.param) a -> (p.Ast.par_name, tr g st a)) formals args
      in
      (* havoc written actuals *)
      let st' =
        List.fold_left2
          (fun st (p : Ast.param) a ->
            match (p.Ast.par_mode, a) with
            | (Ast.Mode_out | Ast.Mode_in_out), Ast.Var x -> havoc g st x
            | _ -> st)
          st formals args
      in
      (* assume the callee postcondition, translated over formals:
         formal -> new actual term; Old formal -> pre-call actual term *)
      (match callee.Ast.sub_post with
      | None -> st'
      | Some post ->
          let subst_new =
            List.map2 (fun (p : Ast.param) a -> (p.Ast.par_name, a)) formals args
          in
          let post =
            Ast.map_expr
              (function
                | Ast.Old x when List.mem_assoc x subst_new ->
                    (* encode as marker; replaced below *)
                    Ast.Old ("__pre_" ^ x)
                | e -> e)
              post
          in
          let post = Ast.subst_expr subst_new post in
          let tpost = tr g st' post in
          (* patch the Old markers with pre-call terms *)
          let rec patch (t : F.t) : F.t =
            match t.F.node with
            | F.Var v when String.length v > 6 && String.sub v 0 6 = "__pre_" ->
                let x = String.sub v 6 (String.length v - 6) in
                let x = if x.[String.length x - 1] = '~' then String.sub x 0 (String.length x - 1) else x in
                (match List.assoc_opt x pre_values with
                | Some s -> s.t
                | None -> t)
            | F.Int _ | F.Bool _ | F.Var _ -> t
            | F.App (op, args) -> F.app op (List.map patch args)
            | F.Ite (c, a, b) -> F.ite (patch c) (patch a) (patch b)
            | F.Forall (x, lo, hi, b) -> F.forall x (patch lo) (patch hi) (patch b)
            | F.Exists (x, lo, hi, b) -> F.exists x (patch lo) (patch hi) (patch b)
          in
          add_hyp st' { tpost with t = patch tpost.t })

and exec_for g st (fl : Ast.for_loop) : path list =
  check_expr_safety g st fl.Ast.for_lo;
  check_expr_safety g st fl.Ast.for_hi;
  let lo = tr g st fl.Ast.for_lo and hi = tr g st fl.Ast.for_hi in
  let i = fl.Ast.for_var in
  let first = if fl.Ast.for_reverse then hi else lo in
  let last = if fl.Ast.for_reverse then lo else hi in
  let next v =
    if fl.Ast.for_reverse then app2 F.Sub v (leaf (F.num 1))
    else app2 F.Add v (leaf (F.num 1))
  in
  let written =
    Ast.written_vars
      ~out_params_of:(fun name ->
        match Ast.find_sub g.program name with
        | Some callee ->
            List.mapi (fun k (p : Ast.param) -> (k, p.Ast.par_mode)) callee.Ast.sub_params
            |> List.filter_map (fun (k, m) ->
                   match m with Ast.Mode_out | Ast.Mode_in_out -> Some k | Ast.Mode_in -> None)
        | None -> [])
      fl.Ast.for_body
  in
  (* 1. invariant init: i = first *)
  let st_entry = set_var st i first in
  List.iter
    (fun inv ->
      let guard_nonempty = app2 F.Le lo hi in
      let st' = add_hyp st_entry guard_nonempty in
      emit g st' F.Vc_invariant_init (tr g st' inv))
    fl.Ast.for_invariants;
  (* 2. preservation: havoc written vars, assume invariant at i, execute
     body, prove invariant at next i *)
  let st_h = List.fold_left (fun st x -> havoc g st x) st written in
  let iv = fresh_name g i in
  let st_h = set_var st_h i (leaf (F.var iv)) in
  let in_range =
    app2 F.And (app2 F.Ge (leaf (F.var iv)) lo) (app2 F.Le (leaf (F.var iv)) hi)
  in
  let st_h = add_hyp st_h in_range in
  let st_h =
    List.fold_left (fun st inv -> add_hyp st (tr g st inv)) st_h fl.Ast.for_invariants
  in
  let body_paths = exec_stmts g [ st_h ] fl.Ast.for_body in
  if fl.Ast.for_invariants <> [] then
    List.iter
      (fun st_end ->
        let st_next = set_var st_end i (next (leaf (F.var iv))) in
        let continue = app2 F.Ne (leaf (F.var iv)) last in
        let st_next = add_hyp st_next continue in
        List.iter
          (fun inv -> emit g st_next F.Vc_invariant_preserve (tr g st_next inv))
          fl.Ast.for_invariants)
      body_paths;
  (* 3. after the loop: havoc written vars; if invariants exist, assume them
     at the exit index; fork on empty loop *)
  let st_exit = List.fold_left (fun st x -> havoc g st x) st written in
  let exit_index = next last in
  let st_exit = set_var st_exit i exit_index in
  let st_exit =
    List.fold_left (fun st inv -> add_hyp st (tr g st inv)) st_exit fl.Ast.for_invariants
  in
  (* remove the loop variable binding after the loop *)
  let st_exit = { st_exit with bindings = List.remove_assoc i st_exit.bindings } in
  (* constant bounds don't fork: emptiness is statically known *)
  match (lo.t.F.node, hi.t.F.node) with
  | F.Int l, F.Int h when l <= h -> [ add_hyp st_exit (app2 F.Le lo hi) ]
  | F.Int _, F.Int _ -> [ st ]
  | _ ->
      let st_nonempty = add_hyp st_exit (app2 F.Le lo hi) in
      let st_empty = add_hyp st (app2 F.Gt lo hi) in
      [ st_nonempty; st_empty ]

and exec_while g st (wl : Ast.while_loop) : path list =
  check_expr_safety g st wl.Ast.while_cond;
  let written =
    Ast.written_vars
      ~out_params_of:(fun name ->
        match Ast.find_sub g.program name with
        | Some callee ->
            List.mapi (fun k (p : Ast.param) -> (k, p.Ast.par_mode)) callee.Ast.sub_params
            |> List.filter_map (fun (k, m) ->
                   match m with Ast.Mode_out | Ast.Mode_in_out -> Some k | Ast.Mode_in -> None)
        | None -> [])
      wl.Ast.while_body
  in
  (* invariant init *)
  List.iter (fun inv -> emit g st F.Vc_invariant_init (tr g st inv)) wl.Ast.while_invariants;
  (* preservation *)
  let st_h = List.fold_left (fun st x -> havoc g st x) st written in
  let st_h =
    List.fold_left (fun st inv -> add_hyp st (tr g st inv)) st_h wl.Ast.while_invariants
  in
  let st_h_in = add_hyp st_h (tr g st_h wl.Ast.while_cond) in
  let body_paths = exec_stmts g [ st_h_in ] wl.Ast.while_body in
  if wl.Ast.while_invariants <> [] then
    List.iter
      (fun st_end ->
        List.iter
          (fun inv -> emit g st_end F.Vc_invariant_preserve (tr g st_end inv))
          wl.Ast.while_invariants)
      body_paths;
  (* exit *)
  let st_exit = List.fold_left (fun st x -> havoc g st x) st written in
  let st_exit =
    List.fold_left (fun st inv -> add_hyp st (tr g st inv)) st_exit wl.Ast.while_invariants
  in
  let st_exit = add_hyp st_exit (app1 F.Not (tr g st_exit wl.Ast.while_cond)) in
  [ st_exit ]

and finalize_post g st ~result =
  match g.sub.Ast.sub_post with
  | None -> ()
  | Some post ->
      let tpost = tr g st post in
      let tpost =
        match result with
        | None -> tpost
        | Some r ->
            let rec sub (t : F.t) : F.t =
              match t.F.node with
              | F.Var "result!" -> r.t
              | F.Int _ | F.Bool _ | F.Var _ -> t
              | F.App (op, args) -> F.app op (List.map sub args)
              | F.Ite (c, a, b) -> F.ite (sub c) (sub a) (sub b)
              | F.Forall (x, lo, hi, b) -> F.forall x (sub lo) (sub hi) (sub b)
              | F.Exists (x, lo, hi, b) -> F.exists x (sub lo) (sub hi) (sub b)
            in
            { t = sub tpost.t; n = tpost.n + r.n }
      in
      emit g st F.Vc_postcondition tpost

(* ------------------------------------------------------------------ *)
(* Per-subprogram driver                                               *)
(* ------------------------------------------------------------------ *)

let used_constants g (sub : Ast.subprogram) =
  (* constants referenced anywhere in the subprogram; a parameter or local
     of the same name shadows the constant, whose defining equation would
     otherwise constrain the shadowing object's symbol *)
  let used = ref [] in
  let note e = used := Ast.expr_vars e @ !used in
  Ast.iter_stmts (fun s -> Ast.iter_own_exprs note s) sub.Ast.sub_body;
  Option.iter note sub.Ast.sub_pre;
  Option.iter note sub.Ast.sub_post;
  let used = List.sort_uniq String.compare !used in
  let shadowed n =
    List.exists (fun (p : Ast.param) -> String.equal p.Ast.par_name n) sub.Ast.sub_params
    || List.exists (fun (v : Ast.var_decl) -> String.equal v.Ast.v_name n) sub.Ast.sub_locals
  in
  List.filter
    (fun (c : Ast.const_decl) -> List.mem c.Ast.k_name used && not (shadowed c.Ast.k_name))
    (Ast.constants g.program)

let initial_state g (sub : Ast.subprogram) =
  let st = { bindings = []; hyps = [] } in
  (* parameters: bound to themselves; range facts assumed; Old symbols equal
     entry values *)
  let st =
    List.fold_left
      (fun st (p : Ast.param) ->
        let t = Typecheck.resolve g.env p.Ast.par_typ in
        let st =
          match range_fact g t (F.var p.Ast.par_name) with
          | Some fact -> add_hyp st (sized_of_formula fact)
          | None -> st
        in
        add_hyp st
          (sized_of_formula (F.eq (F.var (old_sym p.Ast.par_name)) (F.var p.Ast.par_name))))
      st sub.Ast.sub_params
  in
  (* locals: initialised ones get equations; others are default symbols *)
  let st =
    List.fold_left
      (fun st (v : Ast.var_decl) ->
        match v.Ast.v_init with
        | Some e -> set_var st v.Ast.v_name (tr g st e)
        | None -> st)
      st sub.Ast.sub_locals
  in
  (* constants used: defining equations *)
  let st =
    List.fold_left
      (fun st (c : Ast.const_decl) -> add_hyp st (sized_of_formula
        (F.eq (F.var c.Ast.k_name) ((tr g st c.Ast.k_value).t))))
      st (used_constants g sub)
  in
  (* precondition assumed *)
  match sub.Ast.sub_pre with
  | Some pre -> add_hyp st (tr g st pre)
  | None -> st

let var_types_of g_env program (sub : Ast.subprogram) =
  let resolve = Typecheck.resolve g_env in
  List.map (fun (p : Ast.param) -> (p.Ast.par_name, resolve p.Ast.par_typ)) sub.Ast.sub_params
  @ List.map (fun (v : Ast.var_decl) -> (v.Ast.v_name, resolve v.Ast.v_typ)) sub.Ast.sub_locals
  @ List.map (fun (c : Ast.const_decl) -> (c.Ast.k_name, resolve c.Ast.k_typ)) (Ast.constants program)
  @ List.map (fun (v : Ast.var_decl) -> (v.Ast.v_name, resolve v.Ast.v_typ)) (Ast.global_vars program)

type sub_report = {
  sr_sub : string;
  sr_vcs : F.vc list;
  sr_sizes : (string * int) list;  (** per-VC unfolded node counts *)
  sr_digests : string list;
      (** {!F.vc_digest} of each VC of [sr_vcs], in the same order: taken
          once at generation, so the memo serves them with the VCs *)
  sr_discharged : string list;
      (** names of VCs discharged by static analysis (empty until
          {!tag_discharged}) *)
}

let generate_sub_exn ~budget env program (sub : Ast.subprogram) : sub_report =
  let g =
    {
      env;
      program;
      budget;
      total_nodes = 0;
      fresh = 0;
      vcs = [];
      sizes = [];
      sub;
      var_types = var_types_of env program sub;
    }
  in
  let st0 = initial_state g sub in
  let final_paths = exec_stmts g [ st0 ] sub.Ast.sub_body in
  (* procedures: postcondition proved at fall-through exits *)
  if sub.Ast.sub_return = None then
    List.iter (fun st -> finalize_post g st ~result:None) final_paths;
  let vcs = List.rev g.vcs in
  { sr_sub = sub.Ast.sub_name; sr_vcs = vcs; sr_sizes = List.rev g.sizes;
    sr_digests = List.map F.vc_digest vcs; sr_discharged = [] }

let generate_sub ?(budget = default_budget) env program sub =
  as_infeasible (fun () -> generate_sub_exn ~budget env program sub)

type report = {
  r_subs : sub_report list;
  r_infeasible : string option;  (** reason, when the budget was exceeded *)
}

let all_vcs r = List.concat_map (fun s -> s.sr_vcs) r.r_subs

(** Tag each VC the [oracle] can prove without the prover — the report's
    "discharged-by-analysis" column.  The VCs themselves are untouched;
    consumers that schedule proofs skip the tagged names. *)
let tag_discharged ~oracle r =
  {
    r with
    r_subs =
      List.map
        (fun s ->
          {
            s with
            sr_discharged =
              List.filter_map
                (fun (vc : F.vc) ->
                  if oracle vc then Some vc.F.vc_name else None)
                s.sr_vcs;
          })
        r.r_subs;
  }

let total_nodes r =
  List.fold_left
    (fun acc s -> List.fold_left (fun acc (_, n) -> acc + n) acc s.sr_sizes)
    0 r.r_subs

(** Per-subprogram digests of the generated formulas, for impact
    refinement: a subprogram whose digest set matches the baseline's
    generated byte-identical obligations. *)
let vc_digests r = List.map (fun s -> (s.sr_sub, s.sr_digests)) r.r_subs

(* ------------------------------------------------------------------ *)
(* Per-subprogram memo                                                 *)
(*                                                                     *)
(* A subprogram's report is a function of what [generate_sub] reads:   *)
(* its own declaration, every declaration reachable from it through    *)
(* [Share.decl_refs] (callees whose contracts it assumes, functions    *)
(* whose posts it inlines, the types it resolves), every type,         *)
(* constant and global declaration and what they reach ([var_types_of] *)
(* and [used_constants] scan all constants and globals), and the       *)
(* per-VC and path budgets.  The key is exactly that.  The             *)
(* whole-program cap only decides whether generation stops, never what *)
(* it produces, so it stays out of the key and is re-applied on a hit. *)
(* Only reports that succeeded are stored, one table per domain        *)
(* because formulas are interned per domain.                           *)
(* ------------------------------------------------------------------ *)

(* the 29 reports of the annotated AES program hold ~1.2 MB, so a full
   table stays near 10 MB however long a worker lives; a served edit
   regenerates 2-5 subprograms, so it spans dozens of program versions *)
let memo_cap = 256

let memo_key : (string, sub_report) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create memo_cap)

let memo_stats () = Memo.stats (Domain.DLS.get memo_key)

(** Generate VCs for every subprogram of a (checked) program.  A
    subprogram over its path or per-VC budget gets no VCs and the first
    such reason is recorded, mirroring the paper's "no value because the
    VCs were too complicated to be handled" columns; the others are still
    generated, so their defects show.  Only the whole-program cap stops
    generation, keeping the subprograms analysed so far. *)
let generate ?(budget = default_budget) env program : report =
  let memo = Domain.DLS.get memo_key in
  let closure = Share.closure_digest program in
  let globals =
    List.filter_map
      (function Ast.Dsub _ -> None | d -> Some (Ast.decl_name d))
      program.Ast.prog_decls
  in
  let shared_total = ref 0 in
  let first_reason = ref None in
  let note reason = if Option.is_none !first_reason then first_reason := Some reason in
  let rec go acc = function
    | [] -> { r_subs = List.rev acc; r_infeasible = !first_reason }
    | (sub : Ast.subprogram) :: rest -> (
        match
          let name = sub.Ast.sub_name in
          let key =
            Printf.sprintf "%d:%d:%s:%s" budget.max_vc_nodes budget.max_paths
              name (closure (name :: globals))
          in
          let r =
            Memo.find memo key (fun () ->
                generate_sub_exn
                  ~budget:{ budget with max_total_nodes = budget.max_total_nodes - !shared_total }
                  env program sub)
          in
          let nodes = List.fold_left (fun a (_, n) -> a + n) 0 r.sr_sizes in
          (* a cold run under the remaining cap trips exactly when the
             report's nodes exceed it, with this message *)
          if !shared_total + nodes > budget.max_total_nodes then
            raise (Over_total (Printf.sprintf "total VC budget exceeded in %s" name));
          shared_total := !shared_total + nodes;
          r
        with
        | r -> go (r :: acc) rest
        | exception Infeasible reason ->
            note reason;
            go acc rest
        | exception Over_total reason ->
            note reason;
            { r_subs = List.rev acc; r_infeasible = !first_reason })
  in
  go [] (Ast.subprograms program)

(** Approximate printed size in bytes of an unfolded VC term tree: the
    average printed node costs ~8 bytes. *)
let bytes_of_nodes n = n * 8

(** Printed-line length of the longest VC of a report, from the unfolded
    node estimates (a printed node costs ~8 bytes, a line ~78). *)
let max_vc_lines r =
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc (_, n) -> max acc (1 + (bytes_of_nodes n / 78))) acc
        s.sr_sizes)
    0 r.r_subs
