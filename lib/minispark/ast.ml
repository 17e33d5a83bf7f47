(* Abstract syntax of MiniSpark, the SPARK-Ada-like subset used as the
   implementation language for Echo verification.

   Design note: nodes carry no source locations.  Verification refactoring
   compares, rewrites and synthesises subtrees all the time, and structural
   equality of semantically identical fragments is load-bearing (e.g. for
   loop rerolling and clone detection).  Line-oriented metrics are computed
   on the pretty-printed form instead. *)

type ident = string

(** Types.  [Tint None] is unconstrained integer; [Tint (Some (lo, hi))] a
    range subtype; [Tmod m] a modular (wrapping) type of modulus [m];
    [Tarray (lo, hi, elt)] a constrained array; [Tnamed n] a reference to a
    declared type name, resolved by the type checker. *)
type typ =
  | Tbool
  | Tint of (int * int) option
  | Tmod of int
  | Tarray of int * int * typ
  | Tnamed of ident

type unop =
  | Neg
  | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or | And_then | Or_else
  | Band | Bor | Bxor | Shl | Shr

type quantifier =
  | Forall
  | Exists

(** Expressions.  [Old] and [Result] are only legal inside annotations
    (postconditions); [Quantified] only inside annotations. *)
type expr =
  | Bool_lit of bool
  | Int_lit of int
  | Var of ident
  | Index of expr * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of ident * expr list
  | Aggregate of expr list
  | Old of ident
  | Result
  | Quantified of quantifier * ident * expr * expr * expr
      (** [Quantified (q, i, lo, hi, body)]: [for all i in lo .. hi => body] *)

type lvalue =
  | Lvar of ident
  | Lindex of lvalue * expr

type stmt =
  | Null
  | Assign of lvalue * expr
  | If of (expr * stmt list) list * stmt list
      (** branches (if/elsif guards with bodies) and the else body *)
  | For of for_loop
  | While of while_loop
  | Call_stmt of ident * expr list
  | Return of expr option
  | Assert of expr

and for_loop = {
  for_var : ident;
  for_reverse : bool;
  for_lo : expr;
  for_hi : expr;
  for_invariants : expr list;
  for_body : stmt list;
}

and while_loop = {
  while_cond : expr;
  while_invariants : expr list;
  while_body : stmt list;
}

type param_mode =
  | Mode_in
  | Mode_out
  | Mode_in_out

type param = {
  par_name : ident;
  par_mode : param_mode;
  par_typ : typ;
}

type var_decl = {
  v_name : ident;
  v_typ : typ;
  v_init : expr option;
}

type subprogram = {
  sub_name : ident;
  sub_params : param list;
  sub_return : typ option;  (** [Some t] for a function, [None] for a procedure *)
  sub_pre : expr option;
  sub_post : expr option;
  sub_locals : var_decl list;
  sub_body : stmt list;
}

type const_decl = {
  k_name : ident;
  k_typ : typ;
  k_value : expr;
}

type decl =
  | Dtype of ident * typ
  | Dconst of const_decl
  | Dvar of var_decl
  | Dsub of subprogram

type program = {
  prog_name : ident;
  prog_decls : decl list;
}

(* ------------------------------------------------------------------ *)
(* Lookup helpers                                                      *)
(* ------------------------------------------------------------------ *)

let decl_name = function
  | Dtype (n, _) -> n
  | Dconst c -> c.k_name
  | Dvar v -> v.v_name
  | Dsub s -> s.sub_name

let subprograms program =
  List.filter_map
    (function Dsub s -> Some s | Dtype _ | Dconst _ | Dvar _ -> None)
    program.prog_decls

let find_sub program name =
  List.find_opt (fun s -> String.equal s.sub_name name) (subprograms program)

let find_sub_exn program name =
  match find_sub program name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Ast.find_sub_exn: no subprogram %S" name)

let constants program =
  List.filter_map
    (function Dconst c -> Some c | Dtype _ | Dvar _ | Dsub _ -> None)
    program.prog_decls

let type_decls program =
  List.filter_map
    (function Dtype (n, t) -> Some (n, t) | Dconst _ | Dvar _ | Dsub _ -> None)
    program.prog_decls

let global_vars program =
  List.filter_map
    (function Dvar v -> Some v | Dtype _ | Dconst _ | Dsub _ -> None)
    program.prog_decls

(** Replace the named subprogram wholesale; raises if absent. *)
let replace_sub program sub =
  let found = ref false in
  let decls =
    List.map
      (function
        | Dsub s when String.equal s.sub_name sub.sub_name ->
            found := true;
            Dsub sub
        | d -> d)
      program.prog_decls
  in
  if not !found then
    invalid_arg (Printf.sprintf "Ast.replace_sub: no subprogram %S" sub.sub_name);
  { program with prog_decls = decls }

(** Apply [f] to the named subprogram, leaving the rest unchanged. *)
let update_sub program name f =
  replace_sub program (f (find_sub_exn program name))

(** Insert a declaration immediately before the subprogram [anchor] (used by
    refactorings that synthesise helper functions next to their call site). *)
let insert_decl_before program ~anchor decl =
  let rec go = function
    | [] -> [ decl ]
    | Dsub s :: rest when String.equal s.sub_name anchor -> decl :: Dsub s :: rest
    | d :: rest -> d :: go rest
  in
  { program with prog_decls = go program.prog_decls }

let remove_decl program name =
  let keep = function
    | Dtype (n, _) -> not (String.equal n name)
    | Dconst c -> not (String.equal c.k_name name)
    | Dvar v -> not (String.equal v.v_name name)
    | Dsub s -> not (String.equal s.sub_name name)
  in
  { program with prog_decls = List.filter keep program.prog_decls }

(* ------------------------------------------------------------------ *)
(* Traversal and rewriting                                             *)
(* ------------------------------------------------------------------ *)

(* All rewriting combinators below preserve physical sharing: a node (or
   list) none of whose parts changed is returned as-is, not rebuilt.  A
   one-procedure transformation therefore leaves every other declaration
   physically identical, which the incremental re-typechecker and the
   interpreter's program cache key on. *)

(** [List.map] that returns the original list when every element is
    physically unchanged. *)
let map_sharing f xs =
  let changed = ref false in
  let ys =
    List.map
      (fun x ->
        let y = f x in
        if y != x then changed := true;
        y)
      xs
  in
  if !changed then ys else xs

(** Bottom-up expression rewriting: children first (left to right, in a
    deterministic order — effectful rewriters rely on it), then the node
    itself. *)
let rec map_expr f e =
  let e' =
    match e with
    | Bool_lit _ | Int_lit _ | Var _ | Old _ | Result -> e
    | Index (a, i) ->
        let a' = map_expr f a in
        let i' = map_expr f i in
        if a' == a && i' == i then e else Index (a', i')
    | Unop (op, a) ->
        let a' = map_expr f a in
        if a' == a then e else Unop (op, a')
    | Binop (op, a, b) ->
        let a' = map_expr f a in
        let b' = map_expr f b in
        if a' == a && b' == b then e else Binop (op, a', b')
    | Call (name, args) ->
        let args' = map_sharing (map_expr f) args in
        if args' == args then e else Call (name, args')
    | Aggregate es ->
        let es' = map_sharing (map_expr f) es in
        if es' == es then e else Aggregate es'
    | Quantified (q, i, lo, hi, body) ->
        let lo' = map_expr f lo in
        let hi' = map_expr f hi in
        let body' = map_expr f body in
        if lo' == lo && hi' == hi && body' == body then e
        else Quantified (q, i, lo', hi', body')
  in
  f e'

let rec map_lvalue_exprs f lv =
  match lv with
  | Lvar _ -> lv
  | Lindex (inner, i) ->
      let inner' = map_lvalue_exprs f inner in
      let i' = map_expr f i in
      if inner' == inner && i' == i then lv else Lindex (inner', i')

(** Rewrite every expression occurring in a statement (guards, bounds,
    right-hand sides, call arguments, invariants, assertions). *)
let rec map_stmt_exprs f stmt =
  match stmt with
  | Null -> stmt
  | Assign (lv, e) ->
      let lv' = map_lvalue_exprs f lv in
      let e' = map_expr f e in
      if lv' == lv && e' == e then stmt else Assign (lv', e')
  | If (branches, els) ->
      let branch ((g, body) as br) =
        let g' = map_expr f g in
        let body' = map_sharing (map_stmt_exprs f) body in
        if g' == g && body' == body then br else (g', body')
      in
      let branches' = map_sharing branch branches in
      let els' = map_sharing (map_stmt_exprs f) els in
      if branches' == branches && els' == els then stmt
      else If (branches', els')
  | For fl ->
      let lo' = map_expr f fl.for_lo in
      let hi' = map_expr f fl.for_hi in
      let invs' = map_sharing (map_expr f) fl.for_invariants in
      let body' = map_sharing (map_stmt_exprs f) fl.for_body in
      if
        lo' == fl.for_lo && hi' == fl.for_hi
        && invs' == fl.for_invariants
        && body' == fl.for_body
      then stmt
      else
        For
          {
            fl with
            for_lo = lo';
            for_hi = hi';
            for_invariants = invs';
            for_body = body';
          }
  | While wl ->
      let cond' = map_expr f wl.while_cond in
      let invs' = map_sharing (map_expr f) wl.while_invariants in
      let body' = map_sharing (map_stmt_exprs f) wl.while_body in
      if
        cond' == wl.while_cond
        && invs' == wl.while_invariants
        && body' == wl.while_body
      then stmt
      else
        While
          { while_cond = cond'; while_invariants = invs'; while_body = body' }
  | Call_stmt (name, args) ->
      let args' = map_sharing (map_expr f) args in
      if args' == args then stmt else Call_stmt (name, args')
  | Return None -> stmt
  | Return (Some e) ->
      let e' = map_expr f e in
      if e' == e then stmt else Return (Some e')
  | Assert e ->
      let e' = map_expr f e in
      if e' == e then stmt else Assert e'

(** Rewrite statements bottom-up: [f] sees each statement after its
    sub-statements have been rewritten, and may expand one statement into a
    list (or delete it by returning []). *)
let rec map_stmts f stmts =
  let changed = ref false in
  let groups =
    List.map
      (fun stmt ->
        let stmt' =
          match stmt with
          | Null | Assign _ | Call_stmt _ | Return _ | Assert _ -> stmt
          | If (branches, els) ->
              let branch ((g, body) as br) =
                let body' = map_stmts f body in
                if body' == body then br else (g, body')
              in
              let branches' = map_sharing branch branches in
              let els' = map_stmts f els in
              if branches' == branches && els' == els then stmt
              else If (branches', els')
          | For fl ->
              let body' = map_stmts f fl.for_body in
              if body' == fl.for_body then stmt
              else For { fl with for_body = body' }
          | While wl ->
              let body' = map_stmts f wl.while_body in
              if body' == wl.while_body then stmt
              else While { wl with while_body = body' }
        in
        match f stmt' with
        | [ s ] when s == stmt -> [ s ]
        | group ->
            changed := true;
            group)
      stmts
  in
  if !changed then List.concat groups else stmts

let rec iter_expr f e =
  f e;
  match e with
  | Bool_lit _ | Int_lit _ | Var _ | Old _ | Result -> ()
  | Index (a, i) ->
      iter_expr f a;
      iter_expr f i
  | Unop (_, a) -> iter_expr f a
  | Binop (_, a, b) ->
      iter_expr f a;
      iter_expr f b
  | Call (_, args) -> List.iter (iter_expr f) args
  | Aggregate es -> List.iter (iter_expr f) es
  | Quantified (_, _, lo, hi, body) ->
      iter_expr f lo;
      iter_expr f hi;
      iter_expr f body

let rec iter_lvalue_exprs f = function
  | Lvar _ -> ()
  | Lindex (lv, i) ->
      iter_lvalue_exprs f lv;
      iter_expr f i

(** Rewrite the expressions attached directly to one statement node
    (guards, bounds, invariants, arguments), leaving nested bodies alone.
    [f] is a whole-expression transformer (compose with [map_expr] for a
    node-local rewrite); it is applied exactly once per attached
    expression, left to right, so effectful rewriters (literal collectors)
    see a deterministic single traversal. *)
let map_own_exprs f stmt =
  let rec lv_map lv =
    match lv with
    | Lvar _ -> lv
    | Lindex (inner, i) ->
        let inner' = lv_map inner in
        let i' = f i in
        if inner' == inner && i' == i then lv else Lindex (inner', i')
  in
  match stmt with
  | Null -> stmt
  | Assign (lv, e) ->
      let lv' = lv_map lv in
      let e' = f e in
      if lv' == lv && e' == e then stmt else Assign (lv', e')
  | If (branches, els) ->
      let branch ((g, body) as br) =
        let g' = f g in
        if g' == g then br else (g', body)
      in
      let branches' = map_sharing branch branches in
      if branches' == branches then stmt else If (branches', els)
  | For fl ->
      let lo = f fl.for_lo in
      let hi = f fl.for_hi in
      let invs = map_sharing f fl.for_invariants in
      if lo == fl.for_lo && hi == fl.for_hi && invs == fl.for_invariants then
        stmt
      else For { fl with for_lo = lo; for_hi = hi; for_invariants = invs }
  | While wl ->
      let cond = f wl.while_cond in
      let invs = map_sharing f wl.while_invariants in
      if cond == wl.while_cond && invs == wl.while_invariants then stmt
      else While { wl with while_cond = cond; while_invariants = invs }
  | Call_stmt (name, args) ->
      let args' = map_sharing f args in
      if args' == args then stmt else Call_stmt (name, args')
  | Return None -> stmt
  | Return (Some e) ->
      let e' = f e in
      if e' == e then stmt else Return (Some e')
  | Assert e ->
      let e' = f e in
      if e' == e then stmt else Assert e'

(** Apply [f] once to each whole expression attached directly to one
    statement node (guards, bounds, invariants, arguments), not to nested
    bodies — the read-side mirror of [map_own_exprs].  Compose with
    [iter_expr] inside [f] to visit individual nodes. *)
let iter_own_exprs f stmt =
  let rec lv_iter = function
    | Lvar _ -> ()
    | Lindex (lv, i) ->
        lv_iter lv;
        f i
  in
  match stmt with
  | Null -> ()
  | Assign (lv, e) ->
      lv_iter lv;
      f e
  | If (branches, _) -> List.iter (fun (g, _) -> f g) branches
  | For fl ->
      f fl.for_lo;
      f fl.for_hi;
      List.iter f fl.for_invariants
  | While wl ->
      f wl.while_cond;
      List.iter f wl.while_invariants
  | Call_stmt (_, args) -> List.iter f args
  | Return e -> Option.iter f e
  | Assert e -> f e

let rec iter_stmts f stmts =
  List.iter
    (fun stmt ->
      f stmt;
      match stmt with
      | Null | Assign _ | Call_stmt _ | Return _ | Assert _ -> ()
      | If (branches, els) ->
          List.iter (fun (_, body) -> iter_stmts f body) branches;
          iter_stmts f els
      | For fl -> iter_stmts f fl.for_body
      | While wl -> iter_stmts f wl.while_body)
    stmts

(* ------------------------------------------------------------------ *)
(* Derived queries                                                     *)
(* ------------------------------------------------------------------ *)

let lvalue_base lv =
  let rec go = function Lvar x -> x | Lindex (lv, _) -> go lv in
  go lv

(** Free variable names of an expression (quantified variables excluded;
    called function names are not variables). *)
let expr_vars e =
  let rec go bound acc e =
    match e with
    | Bool_lit _ | Int_lit _ | Result -> acc
    | Var x | Old x -> if List.mem x bound then acc else x :: acc
    | Index (a, i) -> go bound (go bound acc a) i
    | Unop (_, a) -> go bound acc a
    | Binop (_, a, b) -> go bound (go bound acc a) b
    | Call (_, args) -> List.fold_left (go bound) acc args
    | Aggregate es -> List.fold_left (go bound) acc es
    | Quantified (_, i, lo, hi, body) ->
        go (i :: bound) (go bound (go bound acc lo) hi) body
  in
  List.sort_uniq String.compare (go [] [] e)

(** All variables a statement list may write (assignment targets plus [out]
    arguments of procedure calls, resolved through [out_params_of]). *)
let written_vars ~out_params_of stmts =
  let acc = ref [] in
  iter_stmts
    (fun stmt ->
      match stmt with
      | Assign (lv, _) -> acc := lvalue_base lv :: !acc
      | Call_stmt (name, args) ->
          List.iteri
            (fun k arg ->
              if List.mem k (out_params_of name) then
                match arg with
                | Var x -> acc := x :: !acc
                | Index _ | Bool_lit _ | Int_lit _ | Unop _ | Binop _ | Call _
                | Aggregate _ | Old _ | Result | Quantified _ ->
                    ())
            args
      | For fl -> acc := fl.for_var :: !acc
      | Null | If _ | While _ | Return _ | Assert _ -> ())
    stmts;
  List.sort_uniq String.compare !acc

(** Variables read anywhere in a statement list (including guards and
    loop bounds). *)
let read_vars stmts =
  let acc = ref [] in
  iter_stmts
    (fun stmt ->
      let add e = acc := expr_vars e @ !acc in
      match stmt with
      | Assign (lv, e) ->
          iter_lvalue_exprs (fun e -> add e) lv;
          add e
      | If (branches, _) -> List.iter (fun (g, _) -> add g) branches
      | For fl ->
          add fl.for_lo;
          add fl.for_hi
      | While wl -> add wl.while_cond
      | Call_stmt (_, args) -> List.iter add args
      | Return (Some e) -> add e
      | Assert e -> add e
      | Null | Return None -> ())
    stmts;
  List.sort_uniq String.compare !acc

(** Substitute variables by expressions (capture-naive: callers must avoid
    substituting under a quantifier binding the same name, which the
    refactoring library guarantees by generating fresh loop variables). *)
let subst_expr env e =
  map_expr
    (function
      | Var x as e -> ( match List.assoc_opt x env with Some e' -> e' | None -> e)
      | e -> e)
    e

let rec subst_lvalue env lv =
  match lv with
  | Lvar x -> (
      match List.assoc_opt x env with
      | Some (Var y) -> if String.equal y x then lv else Lvar y
      | Some _ | None -> lv)
  | Lindex (inner, i) ->
      let inner' = subst_lvalue env inner in
      let i' = subst_expr env i in
      if inner' == inner && i' == i then lv else Lindex (inner', i')

let subst_stmts env stmts =
  map_stmts
    (fun stmt ->
      match stmt with
      | Assign (lv, e) ->
          let lv' = subst_lvalue env lv in
          let e' = subst_expr env e in
          [ (if lv' == lv && e' == e then stmt else Assign (lv', e')) ]
      | other -> [ map_own_exprs (subst_expr env) other ])
    stmts

let expr_of_lvalue lv =
  let rec go = function
    | Lvar x -> Var x
    | Lindex (lv, i) -> Index (go lv, i)
  in
  go lv

(** Structural equality (OCaml [=] is correct here: pure data, no closures,
    no cyclic structure), named for readability at call sites. *)
let equal_expr (a : expr) (b : expr) = a = b

let equal_stmts (a : stmt list) (b : stmt list) = a = b

(** Number of statement nodes, counting nested bodies; used by metrics and
    by refactoring heuristics. *)
let stmt_count stmts =
  let n = ref 0 in
  iter_stmts (fun _ -> incr n) stmts;
  !n
