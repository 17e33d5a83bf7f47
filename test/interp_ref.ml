(* The tree-walking MiniSpark interpreter that [Minispark.Interp] replaced,
   kept verbatim as the reference of the interpreter identity tests
   (test_properties.ml).  Test-only: nothing in lib/ depends on it. *)

open Minispark

(* Big-step interpreter for MiniSpark.

   Annotations ([Assert], loop invariants, pre/post) are *not* executed:
   they are comments to Ada, and ignoring them here guarantees that an
   annotated program and its bare version have identical dynamic semantics —
   the property the refactoring equivalence checks rely on.

   Procedure calls use SPARK copy-in/copy-out parameter passing; arrays are
   values (copy-on-update), so there is no aliasing at runtime either. *)

open Ast

exception Stuck of string
(** Raised when execution cannot proceed (runtime check failure such as an
    out-of-range index or division by zero). *)

exception Out_of_fuel
(** The step budget ran out.  A distinct outcome from {!Stuck}: a
    differential oracle treats it as (suspected) divergence introduced by a
    rewrite, not as a runtime fault of the program under test. *)

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

(* Per-program interpreter data, cached per domain and keyed by the
   *physical* program (transformation steps share unchanged programs by
   pointer, see Share):

   - a subprogram index replacing the linear [env.subs] scan on every
     call (built from the program's declarations, first name wins, the
     same resolution order as [Ast.find_sub]);
   - the evaluated global initialisers as a template, so a fresh runtime
     copies one small table instead of re-evaluating ten 256-element AES
     tables;
   - a memo of "const functions" (scalar in-parameters, reads no mutable
     global, transitively) and their results — gf_mul/xtime-style helpers
     dominate differential-oracle time.

   Values are immutable (arrays are copy-on-update), so sharing the
   template values and memoized results across runtimes is safe.  A memo
   hit skips the callee's fuel consumption: fuel stays an upper bound on
   work actually performed, and a divergence can only be reported when
   the body was actually run. *)
type progdata = {
  pd_subs : (ident, subprogram) Hashtbl.t;
  pd_fn_memo : (ident * Value.t list, Value.t) Hashtbl.t;
  pd_fn_const : (ident, bool) Hashtbl.t;
  mutable pd_template : (ident, Value.t) Hashtbl.t option;
  mutable pd_init_cost : int;
}

type rt = {
  env : Typecheck.env;
  program : program;
  globals : (ident, Value.t) Hashtbl.t;
  mutable fuel : int;
  pd : progdata;
}

let rec default_value env t =
  match Typecheck.resolve env t with
  | Tbool -> Value.Vbool false
  | Tint (Some (lo, _)) -> Value.Vint lo
  | Tint None -> Value.Vint 0
  | Tmod m -> Value.Vmod (0, m)
  | Tarray (lo, hi, elt) ->
      Value.Varray (lo, Array.init (hi - lo + 1) (fun _ -> default_value env elt))
  | Tnamed _ -> assert false

(** Coerce a value to a declared type: wraps plain ints into modular values,
    fixes array bounds of aggregate-produced arrays, recursively. *)
let rec coerce env t v =
  match (Typecheck.resolve env t, v) with
  | Tmod m, (Value.Vint n | Value.Vmod (n, _)) -> Value.wrap m n
  | Tint _, Value.Vmod (n, _) -> Value.Vint n
  | Tarray (lo, hi, elt), Value.Varray (_, data) ->
      if Array.length data <> hi - lo + 1 then
        stuck "array value of length %d where %d expected" (Array.length data)
          (hi - lo + 1);
      Value.Varray (lo, Array.map (coerce env elt) data)
  | _, v -> v

(* ---------------- frames ---------------- *)

type frame = (ident, Value.t) Hashtbl.t

let frame_create () : frame = Hashtbl.create 16

let lookup rt (frame : frame) x =
  match Hashtbl.find_opt frame x with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt rt.globals x with
      | Some v -> v
      | None -> stuck "unbound variable %s" x)

let assign rt (frame : frame) x v =
  if Hashtbl.mem frame x then Hashtbl.replace frame x v
  else if Hashtbl.mem rt.globals x then Hashtbl.replace rt.globals x v
  else stuck "assignment to unbound variable %s" x

(* ---------------- expression evaluation ---------------- *)

let arith op a b =
  let wrap_like r =
    match (a, b) with
    | Value.Vmod (_, m), _ | _, Value.Vmod (_, m) -> Value.wrap m r
    | _ -> Value.Vint r
  in
  let x = Value.as_int a and y = Value.as_int b in
  match op with
  | Add -> wrap_like (x + y)
  | Sub -> wrap_like (x - y)
  | Mul -> wrap_like (x * y)
  | Div ->
      if y = 0 then stuck "division by zero";
      wrap_like (x / y)
  | Mod ->
      if y = 0 then stuck "mod by zero";
      wrap_like (((x mod y) + abs y) mod abs y)
  | _ -> assert false

let bitwise op a b =
  let x = Value.as_int a and y = Value.as_int b in
  let r = match op with
    | Band -> x land y
    | Bor -> x lor y
    | Bxor -> x lxor y
    | _ -> assert false
  in
  match (a, b) with
  | Value.Vmod (_, m), _ | _, Value.Vmod (_, m) -> Value.wrap m r
  | _ -> Value.Vint r

let shift op a b =
  let x = Value.as_int a and k = Value.as_int b in
  if k < 0 || k > 62 then stuck "shift amount %d out of range" k;
  match op with
  | Shl -> (
      match a with
      | Value.Vmod (_, m) -> Value.wrap m (x lsl k)
      | _ -> Value.Vint (x lsl k))
  | Shr -> (
      match a with
      | Value.Vmod (_, m) -> Value.wrap m (x lsr k)
      | _ -> Value.Vint (x lsr k))
  | _ -> assert false

let compare_values op a b =
  match op with
  | Eq -> Value.Vbool (Value.equal a b)
  | Ne -> Value.Vbool (not (Value.equal a b))
  | Lt -> Value.Vbool (Value.as_int a < Value.as_int b)
  | Le -> Value.Vbool (Value.as_int a <= Value.as_int b)
  | Gt -> Value.Vbool (Value.as_int a > Value.as_int b)
  | Ge -> Value.Vbool (Value.as_int a >= Value.as_int b)
  | _ -> assert false

(* ---------------- per-program data ---------------- *)

let pd_bucket_cap = 8
let pd_table_cap = 256
let fn_memo_cap = 131_072

let pd_cache : (int, (program * progdata) list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let progdata_of program =
  let cache = Domain.DLS.get pd_cache in
  let h = Hashtbl.hash program in
  let bucket =
    match Hashtbl.find_opt cache h with
    | Some b -> b
    | None ->
        if Hashtbl.length cache >= pd_table_cap then Hashtbl.reset cache;
        let b = ref [] in
        Hashtbl.replace cache h b;
        b
  in
  match List.find_opt (fun (p, _) -> p == program) !bucket with
  | Some (_, pd) -> pd
  | None ->
      let subs = Hashtbl.create 32 in
      List.iter
        (function
          | Dsub s ->
              if not (Hashtbl.mem subs s.sub_name) then
                Hashtbl.add subs s.sub_name s
          | Dtype _ | Dconst _ | Dvar _ -> ())
        program.prog_decls;
      let pd =
        {
          pd_subs = subs;
          pd_fn_memo = Hashtbl.create 64;
          pd_fn_const = Hashtbl.create 16;
          pd_template = None;
          pd_init_cost = 0;
        }
      in
      let rest =
        if List.length !bucket >= pd_bucket_cap then
          List.filteri (fun i _ -> i < pd_bucket_cap - 1) !bucket
        else !bucket
      in
      bucket := (program, pd) :: rest;
      pd

let scalar_typ env t =
  match Typecheck.resolve env t with
  | Tbool | Tint _ | Tmod _ -> true
  | Tarray _ | Tnamed _ -> false

(* A name is "global-free" when evaluating its body can never read a
   mutable global: no identifier in its body or local initialisers names
   an [Obj_global], and every subprogram it calls is itself global-free.
   Conservative: a local shadowing a global name disqualifies, cycles are
   resolved optimistically (a recursive function is global-free unless
   some body in the cycle reads a global — the provisional [true] is
   corrected before anyone observes it because the whole cycle is
   analysed within this call). *)
let rec global_free pd env name =
  match Hashtbl.find_opt pd.pd_fn_const ("g:" ^ name) with
  | Some b -> b
  | None -> (
      Hashtbl.replace pd.pd_fn_const ("g:" ^ name) true;
      let result =
        match Hashtbl.find_opt pd.pd_subs name with
        | None -> false
        | Some s ->
            let ok = ref true in
            let check_ident x =
              match List.assoc_opt x env.Typecheck.objects with
              | Some (Typecheck.Obj_global, _) -> ok := false
              | Some _ | None -> ()
            in
            let visit_expr e =
              iter_expr
                (fun e ->
                  match e with
                  | Var x | Old x -> check_ident x
                  | Call (f, _) ->
                      if Hashtbl.mem pd.pd_subs f then (
                        if not (global_free pd env f) then ok := false)
                      else check_ident f
                  | Bool_lit _ | Int_lit _ | Index _ | Unop _ | Binop _
                  | Aggregate _ | Result | Quantified _ ->
                      ())
                e
            in
            List.iter (fun v -> Option.iter visit_expr v.v_init) s.sub_locals;
            iter_stmts
              (fun st ->
                (match st with
                | Call_stmt (f, _) -> if not (global_free pd env f) then ok := false
                | Null | Assign _ | If _ | For _ | While _ | Return _ | Assert _
                  ->
                    ());
                iter_own_exprs visit_expr st)
              s.sub_body;
            !ok
      in
      Hashtbl.replace pd.pd_fn_const ("g:" ^ name) result;
      result)

(* Memoizable calls: functions whose parameters are all scalar (the key
   stays small and hash-friendly) and that never read mutable globals, so
   the result is a pure function of the argument values. *)
let fn_const pd env name =
  match Hashtbl.find_opt pd.pd_fn_const name with
  | Some b -> b
  | None ->
      let result =
        match Hashtbl.find_opt pd.pd_subs name with
        | None -> false
        | Some s ->
            s.sub_return <> None
            && List.for_all
                 (fun p -> p.par_mode = Mode_in && scalar_typ env p.par_typ)
                 s.sub_params
            && global_free pd env name
      in
      Hashtbl.replace pd.pd_fn_const name result;
      result

let rec eval rt (frame : frame) e =
  match e with
  | Bool_lit b -> Value.Vbool b
  | Int_lit n -> Value.Vint n
  | Var x -> lookup rt frame x
  | Old x -> lookup rt frame x (* annotations are not executed; defensive *)
  | Result -> stuck "result outside postcondition"
  | Index (a, i) ->
      let av = eval rt frame a in
      let iv = Value.as_int (eval rt frame i) in
      (try Value.array_get av iv with Value.Runtime_error m -> stuck "%s" m)
  | Unop (Neg, a) -> (
      match eval rt frame a with
      | Value.Vint n -> Value.Vint (-n)
      | Value.Vmod (n, m) -> Value.wrap m (-n)
      | v -> stuck "negating %s" (Value.to_string v))
  | Unop (Not, a) -> (
      match eval rt frame a with
      | Value.Vbool b -> Value.Vbool (not b)
      | Value.Vmod (n, m) -> Value.wrap m (m - 1 - n)
      | v -> stuck "not applied to %s" (Value.to_string v))
  | Binop ((Add | Sub | Mul | Div | Mod) as op, a, b) ->
      arith op (eval rt frame a) (eval rt frame b)
  | Binop ((Band | Bor) as op, a, b) -> bitwise op (eval rt frame a) (eval rt frame b)
  | Binop (Bxor, a, b) -> (
      match (eval rt frame a, eval rt frame b) with
      | Value.Vbool x, Value.Vbool y -> Value.Vbool (x <> y)
      | x, y -> bitwise Bxor x y)
  | Binop ((Shl | Shr) as op, a, b) -> shift op (eval rt frame a) (eval rt frame b)
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
      compare_values op (eval rt frame a) (eval rt frame b)
  | Binop (And, a, b) -> (
      match (eval rt frame a, eval rt frame b) with
      | Value.Vbool x, Value.Vbool y -> Value.Vbool (x && y)
      | x, y -> bitwise Band x y)
  | Binop (Or, a, b) -> (
      match (eval rt frame a, eval rt frame b) with
      | Value.Vbool x, Value.Vbool y -> Value.Vbool (x || y)
      | x, y -> bitwise Bor x y)
  | Binop (And_then, a, b) ->
      if Value.as_bool (eval rt frame a) then eval rt frame b else Value.Vbool false
  | Binop (Or_else, a, b) ->
      if Value.as_bool (eval rt frame a) then Value.Vbool true else eval rt frame b
  | Call (name, args) -> (
      match Hashtbl.find_opt rt.pd.pd_subs name with
      | Some callee when callee.sub_return <> None ->
          let argv = List.map (eval rt frame) args in
          call_function rt callee argv
      | Some _ -> stuck "procedure %s in expression" name
      | None -> (
          (* array indexing written call-style (pre-normalisation input) *)
          match (Hashtbl.find_opt rt.globals name, args) with
          | Some arr, [ i ] -> (
              let iv = Value.as_int (eval rt frame i) in
              try Value.array_get arr iv
              with Value.Runtime_error m -> stuck "%s" m)
          | _ -> stuck "unknown function %s" name))
  | Aggregate es ->
      Value.Varray (0, Array.of_list (List.map (eval rt frame) es))
  | Quantified (q, v, lo, hi, body) ->
      (* evaluable for testing annotation semantics *)
      let lov = Value.as_int (eval rt frame lo) in
      let hiv = Value.as_int (eval rt frame hi) in
      let frame' = Hashtbl.copy frame in
      let holds i =
        Hashtbl.replace frame' v (Value.Vint i);
        Value.as_bool (eval rt frame' body)
      in
      let rec all i = i > hiv || (holds i && all (i + 1)) in
      let rec some i = i <= hiv && (holds i || some (i + 1)) in
      Value.Vbool (match q with Forall -> all lov | Exists -> some lov)

(* ---------------- statements ---------------- *)

and exec_stmts rt frame stmts : Value.t option option =
  (* [None] = fell through; [Some r] = returned (with optional value) *)
  match stmts with
  | [] -> None
  | stmt :: rest -> (
      match exec_stmt rt frame stmt with
      | None -> exec_stmts rt frame rest
      | Some _ as r -> r)

and exec_stmt rt frame stmt =
  rt.fuel <- rt.fuel - 1;
  if rt.fuel <= 0 then raise Out_of_fuel;
  match stmt with
  | Null -> None
  | Assert _ -> None (* annotation: not executed *)
  | Assign (lv, e) ->
      let v = eval rt frame e in
      let v =
        (* wrap into the modulus of the current target value if modular *)
        match (current_value rt frame lv, v) with
        | Value.Vmod (_, m), (Value.Vint n | Value.Vmod (n, _)) -> Value.wrap m n
        | _, v -> v
      in
      write_lvalue rt frame lv v;
      None
  | If (branches, els) ->
      let rec pick = function
        | [] -> exec_stmts rt frame els
        | (g, body) :: rest ->
            if Value.as_bool (eval rt frame g) then exec_stmts rt frame body
            else pick rest
      in
      pick branches
  | For fl ->
      let lo = Value.as_int (eval rt frame fl.for_lo) in
      let hi = Value.as_int (eval rt frame fl.for_hi) in
      let had_binding = Hashtbl.mem frame fl.for_var in
      let saved = if had_binding then Some (Hashtbl.find frame fl.for_var) else None in
      let result =
        if lo > hi then None
        else begin
          let first = if fl.for_reverse then hi else lo in
          let last = if fl.for_reverse then lo else hi in
          let step = if fl.for_reverse then -1 else 1 in
          let rec run i =
            Hashtbl.replace frame fl.for_var (Value.Vint i);
            match exec_stmts rt frame fl.for_body with
            | None -> if i = last then None else run (i + step)
            | Some _ as r -> r
          in
          run first
        end
      in
      (match saved with
      | Some v -> Hashtbl.replace frame fl.for_var v
      | None -> Hashtbl.remove frame fl.for_var);
      result
  | While wl ->
      let rec run () =
        if Value.as_bool (eval rt frame wl.while_cond) then begin
          rt.fuel <- rt.fuel - 1;
          if rt.fuel <= 0 then raise Out_of_fuel;
          match exec_stmts rt frame wl.while_body with
          | None -> run ()
          | Some _ as r -> r
        end
        else None
      in
      run ()
  | Return e -> Some (Option.map (eval rt frame) e)
  | Call_stmt (name, args) -> (
      match Hashtbl.find_opt rt.pd.pd_subs name with
      | None -> stuck "unknown procedure %s" name
      | Some callee ->
          let results = call_procedure_values rt frame callee args in
          (* copy-out *)
          List.iter2
            (fun p (arg, out_value) ->
              match (p.par_mode, out_value) with
              | (Mode_out | Mode_in_out), Some v -> (
                  match arg with
                  | Var x -> assign rt frame x v
                  | _ -> stuck "out actual is not a variable")
              | _ -> ())
            callee.sub_params
            (List.combine args results);
          None)

and current_value rt frame lv =
  match lv with
  | Lvar x -> lookup rt frame x
  | Lindex (lv', i) ->
      let av = current_value rt frame lv' in
      let iv = Value.as_int (eval rt frame i) in
      (try Value.array_get av iv with Value.Runtime_error m -> stuck "%s" m)

and write_lvalue rt frame lv v =
  match lv with
  | Lvar x -> assign rt frame x v
  | Lindex (lv', i) ->
      let av = current_value rt frame lv' in
      let iv = Value.as_int (eval rt frame i) in
      let av' =
        try Value.array_set av iv v with Value.Runtime_error m -> stuck "%s" m
      in
      write_lvalue rt frame lv' av'

and bind_params rt callee argv =
  let frame = frame_create () in
  List.iter2
    (fun p v ->
      let v' =
        match p.par_mode with
        | Mode_in | Mode_in_out -> coerce rt.env p.par_typ v
        | Mode_out -> default_value rt.env p.par_typ
      in
      Hashtbl.replace frame p.par_name v')
    callee.sub_params argv;
  List.iter
    (fun vd ->
      let v =
        match vd.v_init with
        | Some e -> coerce rt.env vd.v_typ (eval rt frame e)
        | None -> default_value rt.env vd.v_typ
      in
      Hashtbl.replace frame vd.v_name v)
    callee.sub_locals;
  frame

and call_function rt callee argv =
  if fn_const rt.pd rt.env callee.sub_name then begin
    let key = (callee.sub_name, argv) in
    match Hashtbl.find_opt rt.pd.pd_fn_memo key with
    | Some v -> v
    | None ->
        let v = call_function_uncached rt callee argv in
        if Hashtbl.length rt.pd.pd_fn_memo < fn_memo_cap then
          Hashtbl.add rt.pd.pd_fn_memo key v;
        v
  end
  else call_function_uncached rt callee argv

and call_function_uncached rt callee argv =
  let frame = bind_params rt callee argv in
  match exec_stmts rt frame callee.sub_body with
  | Some (Some v) ->
      let ret = match callee.sub_return with Some t -> t | None -> assert false in
      coerce rt.env ret v
  | Some None | None -> stuck "function %s did not return a value" callee.sub_name

and call_procedure_values rt caller_frame callee args =
  (* returns, per parameter, the value to copy out (None for in-params) *)
  let argv =
    List.map2
      (fun p a ->
        match p.par_mode with
        | Mode_in | Mode_in_out -> eval rt caller_frame a
        | Mode_out -> Value.Vint 0 (* placeholder; bind_params defaults it *))
      callee.sub_params args
  in
  let frame = bind_params rt callee argv in
  (match exec_stmts rt frame callee.sub_body with
  | None | Some None -> ()
  | Some (Some _) -> stuck "procedure %s returned a value" callee.sub_name);
  List.map
    (fun p ->
      match p.par_mode with
      | Mode_in -> None
      | Mode_out | Mode_in_out ->
          Some (coerce rt.env p.par_typ (Hashtbl.find frame p.par_name)))
    callee.sub_params

(* ---------------- public API ---------------- *)

let default_fuel = 50_000_000

(** Build a runtime for a type-checked program: evaluates global constant
    and variable initialisers.  The evaluated initialisers are cached per
    (domain, physical program) and copied into subsequent runtimes — the
    values are immutable, so sharing them is safe.  A cached construction
    still accounts the fuel the initialisers consumed when first built. *)
let make ?(fuel = default_fuel) (env : Typecheck.env) (program : program) =
  let pd = progdata_of program in
  match pd.pd_template with
  | Some template ->
      let remaining = fuel - pd.pd_init_cost in
      if remaining <= 0 then raise Out_of_fuel;
      { env; program; globals = Hashtbl.copy template; fuel = remaining; pd }
  | None ->
      let rt = { env; program; globals = Hashtbl.create 64; fuel; pd } in
      List.iter
        (fun decl ->
          match decl with
          | Dtype _ | Dsub _ -> ()
          | Dconst c ->
              let frame = frame_create () in
              Hashtbl.replace rt.globals c.k_name
                (coerce env c.k_typ (eval rt frame c.k_value))
          | Dvar v ->
              let frame = frame_create () in
              let value =
                match v.v_init with
                | Some e -> coerce env v.v_typ (eval rt frame e)
                | None -> default_value env v.v_typ
              in
              Hashtbl.replace rt.globals v.v_name value)
        program.prog_decls;
      pd.pd_template <- Some (Hashtbl.copy rt.globals);
      pd.pd_init_cost <- fuel - rt.fuel;
      rt

let fresh_runtime ?fuel env program = make ?fuel env program
let fuel_left rt = rt.fuel

(** Call a function by name with OCaml-side argument values. *)
let run_function rt name argv =
  match Ast.find_sub rt.program name with
  | Some callee when callee.sub_return <> None -> call_function rt callee argv
  | Some _ -> stuck "%s is a procedure" name
  | None -> stuck "no function %s" name

(** Call a procedure with values for its [in] and [in out] parameters (in
    declaration order); [out] parameters are synthesised.  Returns the final
    values of out / in-out parameters, in declaration order. *)
let run_procedure rt name argv =
  match Ast.find_sub rt.program name with
  | Some callee when callee.sub_return = None ->
      let frame = frame_create () in
      let remaining = ref argv in
      let next_arg () =
        match !remaining with
        | v :: rest ->
            remaining := rest;
            v
        | [] -> stuck "too few arguments to %s" name
      in
      let args =
        List.mapi
          (fun k p ->
            let x = Printf.sprintf "__actual_%d" k in
            let v =
              match p.par_mode with
              | Mode_in | Mode_in_out -> next_arg ()
              | Mode_out -> default_value rt.env p.par_typ
            in
            Hashtbl.replace frame x v;
            Var x)
          callee.sub_params
      in
      if !remaining <> [] then stuck "too many arguments to %s" name;
      let outs = call_procedure_values rt frame callee args in
      List.filter_map (fun v -> v) outs
  | Some _ -> stuck "%s is a function" name
  | None -> stuck "no procedure %s" name

let global_value rt name =
  match Hashtbl.find_opt rt.globals name with
  | Some v -> v
  | None -> stuck "no global %s" name

(** Evaluate a closed expression in a frame of given bindings (pure: global
    constants of the program are visible). *)
let eval_expr rt bindings e =
  let frame = frame_create () in
  List.iter (fun (x, v) -> Hashtbl.replace frame x v) bindings;
  eval rt frame e
