(* The extraction scheme (DESIGN.md §32).  A step that moved statements
   into a new procedure and replaced them by calls — a procedure split
   ({!Split_procedure.split}) or a clone extraction
   ({!Inline_reverse.extract_procedure}) — claims [Extraction { callee }],
   and [check_scheme] checks that claim against the step: inlining every
   call of the callee back (actuals substituted for formals) and deleting
   its declaration must give the step's before, and the side-conditions
   under which a copy-in/copy-out call runs exactly as its inlined body
   must hold.  The argument is written once, in DESIGN.md §32, whose
   labels (a)-(f) and (r) the comments below use for the side-conditions. *)

open Minispark

exception Fails of string

let fails fmt = Printf.ksprintf (fun s -> raise (Fails s)) fmt

(* ------------------------------------------------------------------ *)
(* Representation: where copy-in/copy-out coercion changes nothing     *)
(* ------------------------------------------------------------------ *)

(* two resolved types whose values coerce into each other unchanged:
   equal, integer ranges aside (a range is not enforced at run time and
   its coercion changes nothing) *)
let rec same_rep (a : Ast.typ) (b : Ast.typ) =
  match (a, b) with
  | Ast.Tbool, Ast.Tbool | Ast.Tint _, Ast.Tint _ -> true
  | Ast.Tmod m, Ast.Tmod n -> m = n
  | Ast.Tarray (lo, hi, x), Ast.Tarray (lo', hi', y) -> lo = lo' && hi = hi' && same_rep x y
  | _ -> false

(* what one subprogram sees: the program's constants and functions, and
   its own parameters, locals and loop variables, all types resolved *)
type scope = {
  env : Typecheck.env;
  consts : (string * Ast.typ) list;
  funs : (string * Ast.typ) list;
  vars : (string * Ast.typ) list;
}

let globals env (program : Ast.program) =
  { env;
    consts =
      List.map
        (fun (c : Ast.const_decl) -> (c.Ast.k_name, Typecheck.resolve env c.Ast.k_typ))
        (Ast.constants program);
    funs =
      List.filter_map
        (fun (s : Ast.subprogram) ->
          Option.map (fun t -> (s.Ast.sub_name, Typecheck.resolve env t)) s.Ast.sub_return)
        (Ast.subprograms program);
    vars = [] }

let enter g (s : Ast.subprogram) =
  { g with
    vars =
      List.map
        (fun (v : Ast.var_decl) -> (v.Ast.v_name, Typecheck.resolve g.env v.Ast.v_typ))
        s.Ast.sub_locals
      @ List.map
          (fun (p : Ast.param) -> (p.Ast.par_name, Typecheck.resolve g.env p.Ast.par_typ))
          s.Ast.sub_params }

let bind_loop sc v = { sc with vars = (v, Ast.Tint None) :: sc.vars }

(* A type every value of [e] is exact for (its coercion to the type
   leaves it unchanged), provided every variable in scope holds a value
   exact for its own type; [None] where none is known.  A global
   variable may hold anything any subprogram stored, so reading one
   gives [None]; constants were coerced when initialised. *)
let rec exact sc (e : Ast.expr) : Ast.typ option =
  match e with
  | Ast.Bool_lit _ -> Some Ast.Tbool
  | Ast.Int_lit _ -> Some (Ast.Tint None)
  | Ast.Var x -> (
      match List.assoc_opt x sc.vars with
      | Some t -> Some t
      | None -> List.assoc_opt x sc.consts)
  | Ast.Index (a, _) -> (
      match exact sc a with Some (Ast.Tarray (_, _, t)) -> Some t | _ -> None)
  | Ast.Unop (_, a) | Ast.Binop ((Ast.Shl | Ast.Shr), a, _) -> exact sc a
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And_then | Ast.Or_else), _, _)
    ->
      Some Ast.Tbool
  | Ast.Binop (_, a, b) -> (
      (* a result takes the modulus of a modular operand, else stays a
         plain integer *)
      match (exact sc a, exact sc b) with
      | Some Ast.Tbool, Some Ast.Tbool -> Some Ast.Tbool
      | Some (Ast.Tmod m), Some (Ast.Tmod n) when m = n -> Some (Ast.Tmod m)
      | Some (Ast.Tmod m), Some (Ast.Tint _) | Some (Ast.Tint _), Some (Ast.Tmod m) ->
          Some (Ast.Tmod m)
      | Some (Ast.Tint _), Some (Ast.Tint _) -> Some (Ast.Tint None)
      | _ -> None)
  | Ast.Call (f, _) -> List.assoc_opt f sc.funs (* the result is coerced *)
  | Ast.Aggregate (e0 :: es) -> (
      match exact sc e0 with
      | Some t
        when List.for_all
               (fun e -> match exact sc e with Some t' -> same_rep t t' | None -> false)
               es ->
          Some (Ast.Tarray (0, List.length es, t))
      | _ -> None)
  | Ast.Aggregate [] | Ast.Old _ | Ast.Result | Ast.Quantified _ -> None

let params_of program name =
  match Ast.find_sub program name with
  | Some s -> s.Ast.sub_params
  | None -> fails "no procedure %s" name

(* Every store into a parameter, local or loop variable of [sub] leaves
   it exact for its type: an assignment stores the right-hand side as it
   is unless the target is modular (then it wraps into the target's
   modulus), and a call's copy-out stores a value of the formal's type.
   By induction, each such variable holds an exact value throughout a
   run of [sub] — parameters and locals start coerced or at defaults. *)
let check_stores g program (sub : Ast.subprogram) =
  let rec lvalue_type sc = function
    | Ast.Lvar x -> List.assoc_opt x sc.vars
    | Ast.Lindex (lv, _) -> (
        match lvalue_type sc lv with Some (Ast.Tarray (_, _, t)) -> Some t | _ -> None)
  in
  let rec stmts sc ss = List.iter (stmt sc) ss
  and stmt sc (s : Ast.stmt) =
    match s with
    | Ast.Assign (lv, e) -> (
        match lvalue_type sc lv with
        | Some (Ast.Tbool | Ast.Tmod _) | None -> ()
        | Some t -> (
            match exact sc e with
            | Some t' when same_rep t t' -> ()
            | _ ->
                fails "%s may store a value not of its type in %s" sub.Ast.sub_name
                  (Ast.lvalue_base lv)))
    | Ast.Call_stmt (p, args) ->
        List.iter2
          (fun (prm : Ast.param) a ->
            match (prm.Ast.par_mode, a) with
            | (Ast.Mode_out | Ast.Mode_in_out), Ast.Var x -> (
                match List.assoc_opt x sc.vars with
                | Some t when not (same_rep t (Typecheck.resolve g.env prm.Ast.par_typ)) ->
                    fails "%s passes %s to a parameter of another type" sub.Ast.sub_name x
                | _ -> ())
            | _ -> ())
          (params_of program p) args
    | Ast.If (branches, els) ->
        List.iter (fun (_, b) -> stmts sc b) branches;
        stmts sc els
    | Ast.For fl -> stmts (bind_loop sc fl.Ast.for_var) fl.Ast.for_body
    | Ast.While wl -> stmts sc wl.Ast.while_body
    | Ast.Null | Ast.Return _ | Ast.Assert _ -> ()
  in
  stmts (enter g sub) sub.Ast.sub_body

(* ------------------------------------------------------------------ *)
(* Dataflow of the body                                                *)
(* ------------------------------------------------------------------ *)

(* does every run of [ss] that completes evaluate variable [x]?  A run
   that raises or diverges first needs no read: its outcome is a raise or
   no outcome either way *)
let rec reads program x ss = List.exists (stmt_reads program x) ss

and stmt_reads program x (s : Ast.stmt) =
  let ev = Transform.always_evaluates x in
  match s with
  | Ast.Assign (lv, e) ->
      let idx = ref false in
      Ast.iter_lvalue_exprs (fun i -> if ev i then idx := true) lv;
      ev e || !idx
  | Ast.If ((g, b) :: rest, els) ->
      ev g || (reads program x b && stmt_reads program x (Ast.If (rest, els)))
  | Ast.If ([], els) -> reads program x els
  | Ast.For fl -> (
      ev fl.Ast.for_lo || ev fl.Ast.for_hi
      ||
      match (fl.Ast.for_lo, fl.Ast.for_hi) with
      | Ast.Int_lit lo, Ast.Int_lit hi -> lo <= hi && reads program x fl.Ast.for_body
      | _ -> false)
  | Ast.While wl -> ev wl.Ast.while_cond
  | Ast.Call_stmt (p, args) ->
      List.exists2
        (fun (prm : Ast.param) a -> prm.Ast.par_mode <> Ast.Mode_out && ev a)
        (params_of program p) args
  | Ast.Null | Ast.Return _ | Ast.Assert _ -> false

(* can evaluating [e] raise?  Indexing, division and shifts check their
   operands, and a function body may raise *)
let can_raise e =
  let raises = ref false in
  Ast.iter_expr
    (function
      | Ast.Index _ | Ast.Call _ | Ast.Binop ((Ast.Div | Ast.Mod | Ast.Shl | Ast.Shr), _, _) ->
          raises := true
      | _ -> ())
    e;
  !raises

(* Every out parameter of [params] is written before [body] reads it,
   on every path, and wholly: a scalar by an assignment or a call's
   copy-out, an array by those or cell by cell at literal indices covering
   its range.  Then nothing [body] does or leaves depends on an out
   parameter's value on entry.  Loops count only when their bounds are
   literals that run the body at least once; a branch counts what every
   arm writes. *)
let outs_written env program (params : Ast.param list) body =
  let cells =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.Ast.par_mode with
        | Ast.Mode_out ->
            Some
              ( p.Ast.par_name,
                match Typecheck.resolve env p.Ast.par_typ with
                | Ast.Tarray (lo, hi, _) -> List.init (hi - lo + 1) (fun k -> lo + k)
                | _ -> [ 0 ] )
        | Ast.Mode_in | Ast.Mode_in_out -> None)
      params
  in
  (* the state: each out parameter not yet wholly written, with the cells
     still unwritten *)
  let no_reads st e =
    Ast.iter_expr
      (function
        | (Ast.Var x | Ast.Old x) when List.mem_assoc x st ->
            fails "reads out parameter %s before writing it" x
        | _ -> ())
      e
  in
  let write st x written =
    match List.assoc_opt x st with
    | None -> st
    | Some left -> (
        match List.filter (fun k -> not (List.mem k written)) left with
        | [] -> List.remove_assoc x st
        | left -> (x, left) :: List.remove_assoc x st)
  in
  (* after a branch: what some arm left unwritten *)
  let join sts =
    List.concat_map (List.map fst) sts
    |> List.sort_uniq String.compare
    |> List.map (fun x ->
           ( x,
             List.sort_uniq compare
               (List.concat_map
                  (fun st -> Option.value ~default:[] (List.assoc_opt x st))
                  sts) ))
  in
  let rec stmts st ss = List.fold_left stmt st ss
  and stmt st (s : Ast.stmt) =
    match s with
    | Ast.Null | Ast.Assert _ | Ast.Return _ -> st
    | Ast.Assign (lv, e) -> (
        no_reads st e;
        Ast.iter_lvalue_exprs (no_reads st) lv;
        match lv with
        | Ast.Lvar x -> List.remove_assoc x st
        | Ast.Lindex (Ast.Lvar x, Ast.Int_lit k) -> write st x [ k ]
        | Ast.Lindex (Ast.Lvar _, _) -> st (* one whole cell, not known which *)
        | Ast.Lindex (Ast.Lindex _, _) ->
            (* a part of a cell: the rest of the cell is read *)
            let x = Ast.lvalue_base lv in
            let rec first = function
              | Ast.Lindex (Ast.Lvar _, i) -> i
              | Ast.Lindex (inner, _) -> first inner
              | Ast.Lvar _ -> assert false
            in
            (match (List.assoc_opt x st, first lv) with
            | Some left, Ast.Int_lit k when not (List.mem k left) -> ()
            | Some _, _ -> fails "partly writes a cell of out parameter %s" x
            | None, _ -> ());
            st)
    | Ast.If (branches, els) ->
        List.iter (fun (g, _) -> no_reads st g) branches;
        join (List.map (fun (_, b) -> stmts st b) branches @ [ stmts st els ])
    | Ast.For fl -> (
        no_reads st fl.Ast.for_lo;
        no_reads st fl.Ast.for_hi;
        let st' = stmts st fl.Ast.for_body in
        match (fl.Ast.for_lo, fl.Ast.for_hi) with
        | Ast.Int_lit lo, Ast.Int_lit hi when lo <= hi -> st'
        | _ -> st)
    | Ast.While wl ->
        no_reads st wl.Ast.while_cond;
        ignore (stmts st wl.Ast.while_body);
        st
    | Ast.Call_stmt (p, args) ->
        let prms = params_of program p in
        List.iter2
          (fun (prm : Ast.param) a -> if prm.Ast.par_mode <> Ast.Mode_out then no_reads st a)
          prms args;
        List.fold_left2
          (fun st (prm : Ast.param) a ->
            match (prm.Ast.par_mode, a) with
            | Ast.Mode_out, Ast.Var x -> List.remove_assoc x st
            | _ -> st)
          st prms args
  in
  match stmts cells body with
  | [] -> ()
  | (x, _) :: _ -> fails "out parameter %s is not wholly written on every path" x

let out_params_written env program params body =
  match outs_written env program params body with
  | () -> Ok ()
  | exception Fails why -> Error why

(* the variables [ss] reads or writes that it does not bind itself,
   [bound] bound around it *)
let free_vars bound ss =
  let acc = ref [] in
  let ex bound e =
    List.iter (fun x -> if not (List.mem x bound) then acc := x :: !acc) (Ast.expr_vars e)
  in
  let rec stmt bound (s : Ast.stmt) =
    match s with
    | Ast.For fl ->
        ex bound fl.Ast.for_lo;
        ex bound fl.Ast.for_hi;
        let inner = fl.Ast.for_var :: bound in
        List.iter (ex inner) fl.Ast.for_invariants;
        List.iter (stmt inner) fl.Ast.for_body
    | s -> (
        Ast.iter_own_exprs (ex bound) s;
        match s with
        | Ast.Assign (lv, _) ->
            let x = Ast.lvalue_base lv in
            if not (List.mem x bound) then acc := x :: !acc
        | Ast.If (branches, els) ->
            List.iter (fun (_, b) -> List.iter (stmt bound) b) branches;
            List.iter (stmt bound) els
        | Ast.While wl -> List.iter (stmt bound) wl.Ast.while_body
        | _ -> ())
  in
  List.iter (stmt bound) ss;
  List.sort_uniq String.compare !acc

(* ------------------------------------------------------------------ *)
(* The scheme                                                          *)
(* ------------------------------------------------------------------ *)

(* [program] with every call of [callee] replaced by its body, actuals
   for formals, and [callee]'s declaration deleted *)
let inline ~(callee : Ast.subprogram) program =
  let formals = List.map (fun (p : Ast.param) -> p.Ast.par_name) callee.Ast.sub_params in
  let expand =
    Ast.map_stmts (function
      | Ast.Call_stmt (f, args) when String.equal f callee.Ast.sub_name ->
          Ast.subst_stmts (List.combine formals args) callee.Ast.sub_body
      | s -> [ s ])
  in
  { program with
    Ast.prog_decls =
      List.filter_map
        (fun d ->
          match d with
          | Ast.Dsub s when String.equal s.Ast.sub_name callee.Ast.sub_name -> None
          | Ast.Dsub s ->
              let body = expand s.Ast.sub_body in
              if body == s.Ast.sub_body then Some d
              else Some (Ast.Dsub { s with Ast.sub_body = body })
          | d -> Some d)
        program.Ast.prog_decls }

(* the calls of [name] in [caller], each with the scope it is made in *)
let call_sites g name (caller : Ast.subprogram) =
  let acc = ref [] in
  let rec stmts sc ss = List.iter (stmt sc) ss
  and stmt sc (s : Ast.stmt) =
    match s with
    | Ast.Call_stmt (f, args) when String.equal f name -> acc := (sc, args) :: !acc
    | Ast.If (branches, els) ->
        List.iter (fun (_, b) -> stmts sc b) branches;
        stmts sc els
    | Ast.For fl -> stmts (bind_loop sc fl.Ast.for_var) fl.Ast.for_body
    | Ast.While wl -> stmts sc wl.Ast.while_body
    | Ast.Null | Ast.Assign _ | Ast.Call_stmt _ | Ast.Return _ | Ast.Assert _ -> ()
  in
  stmts (enter g caller) caller.Ast.sub_body;
  List.rev !acc

(* one call [callee (args)] in [caller] *)
let check_call g program ~(callee : Ast.subprogram) ~(caller : Ast.subprogram) (sc, args) =
  let body = callee.Ast.sub_body in
  let written = Transform.written_vars program body in
  let outs =
    List.filter_map
      (fun ((p : Ast.param), a) ->
        match (p.Ast.par_mode, a) with
        | Ast.Mode_in, _ -> None
        | (Ast.Mode_out | Ast.Mode_in_out), Ast.Var x ->
            (* (c) a variable of the caller: the body cannot reach it by
               another name *)
            if not (List.mem_assoc x sc.vars) then
              fails "%s is passed to %s and is no variable of %s" x p.Ast.par_name
                caller.Ast.sub_name;
            Some (p, x)
        | (Ast.Mode_out | Ast.Mode_in_out), _ -> fails "%s's actual is no variable" p.Ast.par_name)
      (List.combine callee.Ast.sub_params args)
  in
  let inner = Transform.stmt_binders body in
  List.iter2
    (fun (p : Ast.param) a ->
      let formal = Typecheck.resolve g.env p.Ast.par_typ in
      (* (r) copy-in coerces nothing *)
      (match exact sc a with
      | Some t when same_rep t formal -> ()
      | _ when p.Ast.par_mode = Ast.Mode_out -> ()
      | _ -> fails "the actual of %s may change when copied in" p.Ast.par_name);
      (* (f) the body binds no name the actual reads *)
      (match List.find_opt (fun v -> List.mem v inner) (Ast.expr_vars a) with
      | Some v -> fails "%s binds %s, which the actual of %s reads" callee.Ast.sub_name v
                    p.Ast.par_name
      | None -> ());
      if p.Ast.par_mode = Ast.Mode_in then begin
        (* (d) the actual reads the same value wherever the body reads it:
           no variable the body writes, even through a function.  It reads
           only constants and the caller's variables — a global the body
           may write, directly or through a call, is refused — and of
           those the body reaches only what is passed out *)
        (match
           List.find_opt
             (fun x -> not (List.mem_assoc x sc.vars || List.mem_assoc x sc.consts))
             (Ast.expr_vars a)
         with
        | Some x -> fails "the actual of %s reads global variable %s" p.Ast.par_name x
        | None -> ());
        List.iter
          (fun ((q : Ast.param), x) ->
            if List.mem q.Ast.par_name written && List.mem x (Ast.expr_vars a) then
              fails "the actual of %s reads %s, which the body writes" p.Ast.par_name x)
          outs;
        let called = ref [] in
        Ast.iter_expr (function Ast.Call (f, _) -> called := f :: !called | _ -> ()) a;
        let reached = if !called = [] then [] else Share.closure program !called in
        if List.exists (function Ast.Dvar _ -> true | _ -> false) reached then
          fails "the actual of %s calls a function that reads a global variable" p.Ast.par_name;
        (* (e) an actual that can raise raises in both versions, and one
           that could run forever does not: it calls no subprogram with a
           loop that may not end *)
        if can_raise a && not (reads program p.Ast.par_name body) then
          fails "the actual of %s can raise and the body may not read it" p.Ast.par_name;
        List.iter
          (function
            | Ast.Dsub s as d ->
                let loops = ref (List.mem s.Ast.sub_name (Share.decl_refs d)) in
                Ast.iter_stmts (function Ast.While _ -> loops := true | _ -> ()) s.Ast.sub_body;
                if !loops then
                  fails "the actual of %s calls %s, which may not terminate" p.Ast.par_name
                    s.Ast.sub_name
            | _ -> ())
          reached
      end)
    callee.Ast.sub_params args

let check_scheme ~callee (_, before) (env_b, after) =
  match
    let sub =
      match Ast.find_sub after callee with
      | Some s -> s
      | None -> fails "no procedure %s in the step's after" callee
    in
    (* (a) a body that runs in the caller's frame as it stands *)
    if sub.Ast.sub_locals <> [] then fails "%s has locals" callee;
    Ast.iter_stmts
      (function Ast.Return _ -> fails "%s returns early" callee | _ -> ())
      sub.Ast.sub_body;
    let formals = List.map (fun (p : Ast.param) -> p.Ast.par_name) sub.Ast.sub_params in
    (* inlining every call gives the step's before: also, [callee] is
       fresh there and calls no procedure it is inlined into *)
    if not (Share.same_decls (inline ~callee:sub after) before) then fails "inlining %s does not give the step's before" callee;
    (* (b) nothing depends on an out parameter's value on entry *)
    outs_written env_b after sub.Ast.sub_params sub.Ast.sub_body;
    (* (f) the body binds no parameter's name *)
    (match
       List.find_opt (fun v -> List.mem v formals) (Transform.stmt_binders sub.Ast.sub_body)
     with
    | Some v -> fails "%s binds its parameter name %s" callee v
    | None -> ());
    let g = globals env_b after in
    let free = List.filter (fun x -> not (List.mem x formals)) (free_vars [] sub.Ast.sub_body) in
    (* (r) the body keeps its parameters exact *)
    check_stores g after sub;
    List.iter
      (fun (caller : Ast.subprogram) ->
        match call_sites g callee caller with
        | [] -> ()
        | sites ->
            (* (f) the caller binds no name the body reads *)
            (match
               List.find_opt (fun v -> List.mem v free) (Transform.bound_names caller)
             with
            | Some v ->
                fails "%s binds %s, which %s reads" caller.Ast.sub_name v callee
            | None -> ());
            (* (r) the caller keeps its variables exact *)
            check_stores g after caller;
            List.iter (check_call g after ~callee:sub ~caller) sites)
      (Ast.subprograms after)
  with
  | () -> Ok ()
  | exception Fails why -> Error why
