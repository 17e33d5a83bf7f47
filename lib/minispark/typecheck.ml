(* Static semantics for MiniSpark.

   [check] validates a program and returns a *normalised* copy:
   - [Call (a, [i])] where [a] names an object of array type becomes
     [Index (Var a, i)];
   - intrinsic calls [shift_left]/[shift_right] become [Shl]/[Shr];
   - logical [And]/[Or] whose operands are modular become bitwise
     [Band]/[Bor].

   SPARK-like restrictions enforced here (they are what make WP generation
   and refactoring sound):
   - functions are pure: [in] parameters only, no global writes, no
     procedure calls, must return on all paths (checked shallowly);
   - procedures cannot be called in expressions;
   - [in] parameters and constants are never assigned;
   - [Old]/[Result]/quantifiers appear only in annotations ([Result] only in
     function postconditions);
   - no two [out]/[in out] actuals of one call alias the same variable. *)

open Ast

exception Type_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type obj_kind =
  | Obj_const
  | Obj_global
  | Obj_local
  | Obj_param of param_mode

type env = {
  types : (ident * typ) list;      (* fully resolved right-hand sides *)
  objects : (ident * (obj_kind * typ)) list;  (* resolved types *)
  subs : (ident * subprogram) list;
}

let empty_env = { types = []; objects = []; subs = [] }

let rec resolve env t =
  match t with
  | Tbool | Tint _ | Tmod _ -> t
  | Tarray (lo, hi, elt) -> Tarray (lo, hi, resolve env elt)
  | Tnamed n -> (
      match List.assoc_opt n env.types with
      | Some t -> t
      | None -> error "unknown type %s" n)

let is_numeric = function Tint _ | Tmod _ -> true | Tbool | Tarray _ | Tnamed _ -> false

(* Base-type compatibility: range subtypes of integer are inter-assignable
   (range membership is a proof obligation, not a typing fact — as in SPARK,
   where it yields a run-time-check VC). *)
let rec compatible a b =
  match (a, b) with
  | Tbool, Tbool -> true
  | (Tint _ | Tmod _), Tint _ | Tint _, Tmod _ -> true
  (* modular types are inter-assignable when one modulus divides the
     other: widening preserves the value, narrowing wraps at the
     assignment (deterministic, mirrored by the interpreter's coercion).
     Mixing modular operands inside one operation stays rejected. *)
  | Tmod m, Tmod n -> m = n || (m < n && n mod m = 0) || (n < m && m mod n = 0)
  | Tarray (lo, hi, x), Tarray (lo', hi', y) -> lo = lo' && hi = hi' && compatible x y
  | (Tbool | Tint _ | Tmod _ | Tarray _ | Tnamed _), _ -> false

(* Result type of a numeric binop given operand types. *)
let join a b =
  match (a, b) with
  | Tmod m, _ | _, Tmod m -> Tmod m
  | Tint _, Tint _ -> Tint None
  | _ -> error "numeric operands expected"

type annot_ctx =
  | Ctx_code        (* ordinary executable code *)
  | Ctx_pre
  | Ctx_post
  | Ctx_invariant   (* loop invariants and assert statements *)

type ctx = {
  env : env;
  locals : (ident * (obj_kind * typ)) list;  (* params + locals + loop vars *)
  current : subprogram option;
  annot : annot_ctx;
}

let lookup_obj ctx name =
  match List.assoc_opt name ctx.locals with
  | Some x -> Some x
  | None -> List.assoc_opt name ctx.env.objects

let lookup_obj_exn ctx name =
  match lookup_obj ctx name with
  | Some x -> x
  | None -> error "unknown object %s" name

(* ------------------------------------------------------------------ *)
(* Expression checking: returns the normalised expression and its type *)
(* ------------------------------------------------------------------ *)

let rec check_expr ?expected ctx e =
  let e', t = infer ctx e in
  (match expected with
  | Some want when not (compatible t want) ->
      error "type mismatch in %s: expected %s, got %s" (Pretty.expr_to_string e)
        (Pretty.typ_to_string want) (Pretty.typ_to_string t)
  | _ -> ());
  (e', t)

and infer ctx e =
  match e with
  | Bool_lit _ -> (e, Tbool)
  | Int_lit _ -> (e, Tint None)
  | Var x -> (
      match lookup_obj ctx x with
      | Some (_, t) -> (e, t)
      | None -> error "unknown variable %s" x)
  | Old x ->
      if ctx.annot = Ctx_code then error "%s~ is only legal in annotations" x;
      let _, t = lookup_obj_exn ctx x in
      (e, t)
  | Result -> (
      if ctx.annot <> Ctx_post then error "result is only legal in postconditions";
      match ctx.current with
      | Some { sub_return = Some t; _ } -> (e, resolve ctx.env t)
      | Some _ | None -> error "result used outside a function")
  | Index (a, i) -> (
      let a', ta = infer ctx a in
      let i', _ = check_numeric ctx i in
      match ta with
      | Tarray (_, _, elt) -> (Index (a', i'), elt)
      | _ -> error "indexing a non-array: %s" (Pretty.expr_to_string a))
  | Unop (Neg, a) ->
      let a', t = check_numeric ctx a in
      (Unop (Neg, a'), t)
  | Unop (Not, a) -> (
      let a', t = infer ctx a in
      match t with
      | Tbool -> (Unop (Not, a'), Tbool)
      | Tmod _ -> (Unop (Not, a'), t) (* bitwise complement on modular *)
      | _ -> error "not applied to non-boolean")
  | Binop ((Add | Sub | Mul | Div | Mod) as op, a, b) ->
      let a', ta = check_numeric ctx a in
      let b', tb = check_numeric ctx b in
      check_mod_agreement ta tb;
      (Binop (op, a', b'), join ta tb)
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
      let a', ta = infer ctx a in
      let b', tb = infer ctx b in
      if not (compatible ta tb) then
        error "comparison between incompatible types in %s"
          (Pretty.expr_to_string e);
      (Binop (op, a', b'), Tbool)
  | Binop ((And | Or) as op, a, b) -> (
      let a', ta = infer ctx a in
      let b', tb = infer ctx b in
      match (ta, tb) with
      | Tbool, Tbool -> (Binop (op, a', b'), Tbool)
      | (Tmod _ | Tint _), (Tmod _ | Tint _) ->
          check_mod_agreement ta tb;
          let op' = match op with And -> Band | _ -> Bor in
          (Binop (op', a', b'), join ta tb)
      | _ -> error "and/or operands must both be boolean or both modular")
  | Binop ((Band | Bor) as op, a, b) ->
      let a', ta = check_numeric ctx a in
      let b', tb = check_numeric ctx b in
      check_mod_agreement ta tb;
      (Binop (op, a', b'), join ta tb)
  | Binop ((And_then | Or_else) as op, a, b) ->
      let a', _ = check_expr ~expected:Tbool ctx a in
      let b', _ = check_expr ~expected:Tbool ctx b in
      (Binop (op, a', b'), Tbool)
  | Binop (Bxor, a, b) -> (
      let a', ta = infer ctx a in
      let b', tb = infer ctx b in
      match (ta, tb) with
      | Tbool, Tbool -> (Binop (Bxor, a', b'), Tbool)
      | (Tmod _ | Tint _), (Tmod _ | Tint _) ->
          check_mod_agreement ta tb;
          (Binop (Bxor, a', b'), join ta tb)
      | _ -> error "xor operands must both be boolean or both modular")
  | Binop ((Shl | Shr) as op, a, b) ->
      let a', ta = check_numeric ctx a in
      let b', _ = check_numeric ctx b in
      (Binop (op, a', b'), ta)
  | Call (("shift_left" | "shift_right") as name, [ a; b ]) ->
      let op = if String.equal name "shift_left" then Shl else Shr in
      infer ctx (Binop (op, a, b))
  | Call (name, args) -> (
      match lookup_obj ctx name with
      | Some (_, t) ->
          (* object applied to arguments: indexing written call-style *)
          let indexed =
            List.fold_left (fun acc i -> Index (acc, i)) (Var name) args
          in
          let _ = t in
          infer ctx indexed
      | None -> (
          match List.assoc_opt name ctx.env.subs with
          | Some callee -> (
              match callee.sub_return with
              | None -> error "procedure %s called in an expression" name
              | Some ret ->
                  if List.length args <> List.length callee.sub_params then
                    error "wrong number of arguments to %s" name;
                  let args' =
                    List.map2
                      (fun p a ->
                        let want = resolve ctx.env p.par_typ in
                        fst (check_expr ~expected:want ctx a))
                      callee.sub_params args
                  in
                  (Call (name, args'), resolve ctx.env ret))
          | None -> error "unknown function %s" name))
  | Aggregate es ->
      (* Aggregates are only typeable against an expected array type; infer
         element-wise and leave shape checking to the declaration site. *)
      let es' = List.map (fun e -> fst (infer ctx e)) es in
      (Aggregate es', Tarray (0, List.length es - 1, Tint None))
  | Quantified (q, v, lo, hi, body) ->
      if ctx.annot = Ctx_code then error "quantifier outside annotation";
      let lo', _ = check_numeric ctx lo in
      let hi', _ = check_numeric ctx hi in
      let ctx' =
        { ctx with locals = (v, (Obj_local, Tint None)) :: ctx.locals }
      in
      let body', _ = check_expr ~expected:Tbool ctx' body in
      (Quantified (q, v, lo', hi', body'), Tbool)

and check_numeric ctx e =
  let e', t = infer ctx e in
  if not (is_numeric t) then
    error "numeric expression expected: %s" (Pretty.expr_to_string e);
  (e', t)

and check_mod_agreement ta tb =
  match (ta, tb) with
  | Tmod m, Tmod n when m <> n -> error "mixed moduli %d and %d" m n
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec check_lvalue ctx lv =
  match lv with
  | Lvar x -> (
      let kind, t = lookup_obj_exn ctx x in
      match kind with
      | Obj_const -> error "assignment to constant %s" x
      | Obj_param Mode_in -> error "assignment to in-parameter %s" x
      | Obj_param (Mode_out | Mode_in_out) | Obj_global | Obj_local -> (lv, t))
  | Lindex (lv, i) -> (
      let lv', t = check_lvalue ctx lv in
      let i', _ = check_numeric ctx i in
      match t with
      | Tarray (_, _, elt) -> (Lindex (lv', i'), elt)
      | _ -> error "indexed assignment to non-array")

let in_function ctx =
  match ctx.current with Some { sub_return = Some _; _ } -> true | _ -> false

let check_call_aliasing callee args =
  let outs =
    List.concat
      (List.map2
         (fun p a ->
           match (p.par_mode, a) with
           | (Mode_out | Mode_in_out), Var x -> [ x ]
           | (Mode_out | Mode_in_out), _ ->
               error "out-mode actual of %s must be a variable" callee.sub_name
           | Mode_in, _ -> [])
         callee.sub_params args)
  in
  let sorted = List.sort String.compare outs in
  let rec dup = function
    | a :: b :: _ when String.equal a b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  match dup sorted with
  | Some x -> error "aliased out-parameter %s in call to %s" x callee.sub_name
  | None -> ()

let rec check_stmt ctx stmt =
  match stmt with
  | Null -> Null
  | Assert e ->
      let e', _ = check_expr ~expected:Tbool { ctx with annot = Ctx_invariant } e in
      Assert e'
  | Assign (lv, e) ->
      let lv', t = check_lvalue ctx lv in
      let e', _ = check_expr ~expected:t ctx e in
      Assign (lv', e')
  | If (branches, els) ->
      let branch (g, body) =
        let g', _ = check_expr ~expected:Tbool ctx g in
        (g', check_stmts ctx body)
      in
      If (List.map branch branches, check_stmts ctx els)
  | For fl ->
      let lo', _ = check_numeric ctx fl.for_lo in
      let hi', _ = check_numeric ctx fl.for_hi in
      let ctx' =
        { ctx with locals = (fl.for_var, (Obj_const, Tint None)) :: ctx.locals }
      in
      let invs =
        List.map
          (fun inv ->
            fst (check_expr ~expected:Tbool { ctx' with annot = Ctx_invariant } inv))
          fl.for_invariants
      in
      For
        {
          fl with
          for_lo = lo';
          for_hi = hi';
          for_invariants = invs;
          for_body = check_stmts ctx' fl.for_body;
        }
  | While wl ->
      let cond', _ = check_expr ~expected:Tbool ctx wl.while_cond in
      let invs =
        List.map
          (fun inv ->
            fst (check_expr ~expected:Tbool { ctx with annot = Ctx_invariant } inv))
          wl.while_invariants
      in
      While
        { while_cond = cond'; while_invariants = invs; while_body = check_stmts ctx wl.while_body }
  | Call_stmt (name, args) -> (
      if in_function ctx then error "procedure call inside function %s"
          (match ctx.current with Some s -> s.sub_name | None -> "?");
      match List.assoc_opt name ctx.env.subs with
      | None -> error "unknown procedure %s" name
      | Some callee ->
          if callee.sub_return <> None then error "%s is a function, not a procedure" name;
          if List.length args <> List.length callee.sub_params then
            error "wrong number of arguments to %s" name;
          let args' =
            List.map2
              (fun p a ->
                let want = resolve ctx.env p.par_typ in
                match p.par_mode with
                | Mode_in -> fst (check_expr ~expected:want ctx a)
                | Mode_out | Mode_in_out -> (
                    match a with
                    | Var _ ->
                        let a', ta = infer ctx a in
                        if not (compatible ta want) then
                          error "argument type mismatch in call to %s" name;
                        (* the actual must itself be writable *)
                        let _ =
                          check_lvalue ctx
                            (match a' with Var x -> Lvar x | _ -> assert false)
                        in
                        a'
                    | _ -> error "out-mode actual of %s must be a variable" name))
              callee.sub_params args
          in
          check_call_aliasing callee args';
          Call_stmt (name, args'))
  | Return None ->
      if in_function ctx then error "return without value in a function";
      Return None
  | Return (Some e) -> (
      match ctx.current with
      | Some { sub_return = Some t; _ } ->
          let e', _ = check_expr ~expected:(resolve ctx.env t) ctx e in
          Return (Some e')
      | Some _ | None -> error "return with value outside a function")

and check_stmts ctx stmts = List.map (check_stmt ctx) stmts

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let check_aggregate_shape env t e =
  (* validate aggregate literals against the declared (array) type *)
  let rec go t e =
    match (resolve env t, e) with
    | Tarray (lo, hi, elt), Aggregate es ->
        if List.length es <> hi - lo + 1 then
          error "aggregate has %d elements, type wants %d" (List.length es)
            (hi - lo + 1);
        List.iter (go elt) es
    | Tarray _, _ -> error "array object initialised with a non-aggregate"
    | _, Aggregate _ -> error "aggregate initialising a scalar"
    | _ -> ()
  in
  go t e

let check_subprogram env sub =
  let env_params =
    List.map
      (fun p ->
        let mode =
          if sub.sub_return <> None && p.par_mode <> Mode_in then
            error "function %s has a non-in parameter %s" sub.sub_name p.par_name
          else p.par_mode
        in
        (p.par_name, (Obj_param mode, resolve env p.par_typ)))
      sub.sub_params
  in
  let env_locals =
    List.map (fun v -> (v.v_name, (Obj_local, resolve env v.v_typ))) sub.sub_locals
  in
  let ctx = { env; locals = env_locals @ env_params; current = Some sub; annot = Ctx_code } in
  (* function purity: no writes to globals *)
  if sub.sub_return <> None then begin
    let locally_bound = List.map fst ctx.locals in
    iter_stmts
      (fun s ->
        match s with
        | Assign (lv, _) ->
            let base = lvalue_base lv in
            if not (List.mem base locally_bound) then begin
              (* a for-loop variable is also fine; collect them lazily *)
              let is_loop_var = ref false in
              iter_stmts
                (function
                  | For fl when String.equal fl.for_var base -> is_loop_var := true
                  | _ -> ())
                sub.sub_body;
              if not !is_loop_var then
                error "function %s writes global %s" sub.sub_name base
            end
        | _ -> ())
      sub.sub_body
  end;
  let locals' =
    List.map
      (fun v ->
        match v.v_init with
        | None -> v
        | Some e ->
            let t = resolve env v.v_typ in
            (match e with
            | Aggregate _ -> check_aggregate_shape env v.v_typ e
            | _ ->
                let _, te = infer ctx e in
                if not (compatible te t) then
                  error "initialiser type mismatch for %s" v.v_name);
            v)
      sub.sub_locals
  in
  let pre =
    Option.map
      (fun e -> fst (check_expr ~expected:Tbool { ctx with annot = Ctx_pre } e))
      sub.sub_pre
  in
  let post =
    Option.map
      (fun e -> fst (check_expr ~expected:Tbool { ctx with annot = Ctx_post } e))
      sub.sub_post
  in
  let body = check_stmts ctx sub.sub_body in
  { sub with sub_pre = pre; sub_post = post; sub_locals = locals'; sub_body = body }

(** Check one declaration against the environment accumulated so far;
    returns the extended environment and the normalised declaration.  The
    result goes through {!Share.intern_decl}, so re-deriving a declaration
    structurally equal to one still in that memo yields the earlier
    physical object — the incremental checker and the [Interp] program
    cache key on this. *)
let check_decl env decl =
  match decl with
  | Dtype (n, t) ->
      if List.mem_assoc n env.types then error "duplicate type %s" n;
      let t' = resolve env t in
      ({ env with types = (n, t') :: env.types }, Share.intern_decl (Dtype (n, t)))
  | Dconst c ->
      if List.mem_assoc c.k_name env.objects then error "duplicate object %s" c.k_name;
      let t = resolve env c.k_typ in
      let ctx = { env; locals = []; current = None; annot = Ctx_code } in
      let value =
        match c.k_value with
        | Aggregate _ ->
            check_aggregate_shape env c.k_typ c.k_value;
            (* normalise elements *)
            let rec norm t e =
              match (resolve env t, e) with
              | Tarray (_, _, elt), Aggregate es -> Aggregate (List.map (norm elt) es)
              | _, e -> fst (infer ctx e)
            in
            norm c.k_typ c.k_value
        | e ->
            let e', te = infer ctx e in
            if not (compatible te t) then error "constant %s type mismatch" c.k_name;
            e'
      in
      ( { env with objects = (c.k_name, (Obj_const, t)) :: env.objects },
        Share.intern_decl (Dconst { c with k_value = value }) )
  | Dvar v ->
      if List.mem_assoc v.v_name env.objects then error "duplicate object %s" v.v_name;
      let t = resolve env v.v_typ in
      let ctx = { env; locals = []; current = None; annot = Ctx_code } in
      let init =
        Option.map
          (fun e ->
            match e with
            | Aggregate _ ->
                check_aggregate_shape env v.v_typ e;
                e
            | _ ->
                let e', te = infer ctx e in
                if not (compatible te t) then
                  error "initialiser type mismatch for %s" v.v_name;
                e')
          v.v_init
      in
      ( { env with objects = (v.v_name, (Obj_global, t)) :: env.objects },
        Share.intern_decl (Dvar { v with v_init = init }) )
  | Dsub sub ->
      if List.mem_assoc sub.sub_name env.subs then
        error "duplicate subprogram %s" sub.sub_name;
      (* allow recursion: add the signature before checking the body *)
      let env' = { env with subs = (sub.sub_name, sub) :: env.subs } in
      let sub' = check_subprogram env' sub in
      let d' = Share.intern_decl (Dsub sub') in
      let sub'' = match d' with Dsub s -> s | _ -> assert false in
      ({ env with subs = (sub.sub_name, sub'') :: env.subs }, d')

(** Type-check a program; returns the normalised program.
    Declarations are processed in order, so every name must be declared
    before use (as in Ada). *)
let check program =
  let env, rev_decls =
    List.fold_left
      (fun (env, acc) d ->
        let env', d' = check_decl env d in
        (env', d' :: acc))
      (empty_env, []) program.prog_decls
  in
  (env, { program with prog_decls = List.rev rev_decls })

(* ------------------------------------------------------------------ *)
(* Incremental re-checking                                             *)
(* ------------------------------------------------------------------ *)

(* The "surface" of a declaration is the part of it other declarations'
   checking can observe: a type's resolved right-hand side, an object's
   kind and resolved type, a subprogram's resolved signature.  Bodies,
   contract annotations, parameter names and constant values are not
   surface — a body-only edit never dirties its callers. *)
type surface =
  | Sf_type of typ
  | Sf_obj of obj_kind * typ
  | Sf_sub of (param_mode * typ) list * typ option

let sub_surface env s =
  Sf_sub
    ( List.map (fun p -> (p.par_mode, resolve env p.par_typ)) s.sub_params,
      Option.map (resolve env) s.sub_return )

let surface_of env d =
  match d with
  | Dtype (n, _) -> Sf_type (List.assoc n env.types)
  | Dconst c ->
      let k, t = List.assoc c.k_name env.objects in
      Sf_obj (k, t)
  | Dvar v ->
      let k, t = List.assoc v.v_name env.objects in
      Sf_obj (k, t)
  | Dsub s -> sub_surface env s

(** Re-check a program against a checked baseline, reusing every
    declaration that is physically equal to its baseline namesake and
    whose referenced names all kept their surface.  The result is
    structurally identical to [check program] — agreement is what the
    QCheck properties in [test_typecheck_incremental] assert — at the
    cost of re-checking only the edited declarations and their
    surface-affected dependents.

    Precondition: [baseline] is a pair returned by {!check} or by this
    function (the baseline program must be normalised, or a physically
    reused declaration could skip normalisation). *)
let check_incremental ~baseline:(env0, prog0) program =
  let base_decl = Hashtbl.create 64 in
  List.iter
    (fun d ->
      let n = decl_name d in
      if not (Hashtbl.mem base_decl n) then Hashtbl.add base_decl n d)
    prog0.prog_decls;
  let base_surface = Hashtbl.create 64 in
  List.iter (fun (n, t) -> Hashtbl.replace base_surface n (Sf_type t)) env0.types;
  List.iter
    (fun (n, (k, t)) -> Hashtbl.replace base_surface n (Sf_obj (k, t)))
    env0.objects;
  List.iter
    (fun (n, s) -> Hashtbl.replace base_surface n (sub_surface env0 s))
    env0.subs;
  let declared = Hashtbl.create 64 in
  let new_surface = Hashtbl.create 64 in
  let process (env, acc) d =
    let n = decl_name d in
    let reusable =
      (not (Hashtbl.mem declared n))
      &&
      match Hashtbl.find_opt base_decl n with
      | Some d0 when d0 == d ->
          (* every name the declaration mentions must denote the same
             surface it denoted in the baseline (or be absent in both:
             locals, loop variables, intrinsics) *)
          List.for_all
            (fun r ->
              String.equal r n
              ||
              match
                (Hashtbl.find_opt base_surface r, Hashtbl.find_opt new_surface r)
              with
              | None, None -> true
              | Some s0, Some s1 -> s0 = s1
              | None, Some _ | Some _, None -> false)
            (Share.decl_refs d)
      | Some _ | None -> false
    in
    Hashtbl.replace declared n ();
    if reusable then (
      let env' =
        match d with
        | Dtype (tn, _) ->
            let t = List.assoc tn env0.types in
            { env with types = (tn, t) :: env.types }
        | Dconst _ | Dvar _ ->
            let entry = List.assoc n env0.objects in
            { env with objects = (n, entry) :: env.objects }
        | Dsub s -> { env with subs = (n, s) :: env.subs }
      in
      Hashtbl.replace new_surface n (Hashtbl.find base_surface n);
      (env', d :: acc))
    else
      let env', d' = check_decl env d in
      Hashtbl.replace new_surface n (surface_of env' d');
      (env', d' :: acc)
  in
  let env, rev_decls =
    List.fold_left process (empty_env, []) program.prog_decls
  in
  let decls = List.rev rev_decls in
  (* a fully reused declaration list preserves the program record itself,
     so no-op re-checks keep digest memos and downstream == fast paths *)
  let prog =
    if
      List.length decls = List.length program.prog_decls
      && List.for_all2 ( == ) decls program.prog_decls
    then program
    else { program with prog_decls = decls }
  in
  (env, prog)

(** Convenience: the resolved type of a (checked) expression in the context
    of a given subprogram — used by the VC generator. *)
let expr_type env sub e =
  let locals =
    match sub with
    | None -> []
    | Some s ->
        List.map (fun p -> (p.par_name, (Obj_param p.par_mode, resolve env p.par_typ))) s.sub_params
        @ List.map (fun v -> (v.v_name, (Obj_local, resolve env v.v_typ))) s.sub_locals
  in
  let ctx = { env; locals; current = sub; annot = Ctx_post } in
  snd (infer ctx e)
