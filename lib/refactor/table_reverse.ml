(* Reversing table lookups (§6.2.1, case-study-specific category):
   a precomputed table is replaced by the explicit computation it caches
   ("based on the documentation"), and the table is removed.

   The user supplies the replacement expression (over a distinguished index
   variable) and, optionally, helper definitions the expression calls.  The
   applicability check is an exhaustive proof over the table's finite index
   range: every entry must equal the interpreted replacement — the
   strongest possible semantics-preservation evidence.

   The step claims its parameters ({!Transform.Table_reversal}), and
   [check_scheme] is the scheme that certification checks an instance
   against: the rewrite replayed on the step's own pre-image, plus the
   side-conditions under which replacing a lookup by the replacement
   preserves every subprogram's behaviour (DESIGN.md §31). *)

open Minispark

(* helpers go, in order, before the first *original* subprogram so every
   later declaration (and helpers further down the list) can use them *)
let install_helpers ~helpers (env0, program0) =
  let already_declared program name =
    List.exists (fun d -> String.equal (Ast.decl_name d) name) program.Ast.prog_decls
  in
  let anchor =
    match Ast.subprograms program0 with
    | first :: _ -> first.Ast.sub_name
    | [] -> Transform.reject "program has no subprograms"
  in
  let program =
    List.fold_left
      (fun program (decl : Ast.decl) ->
        if already_declared program (Ast.decl_name decl) then program
        else Ast.insert_decl_before program ~anchor decl)
      program0 helpers
  in
  match Typecheck.check_incremental ~baseline:(env0, program0) program with
  | r -> r
  | exception Typecheck.Type_error msg ->
      Transform.reject "helper definitions do not type-check: %s" msg

(* drop the table and rewrite the expressions of every subprogram — body
   statements with [stmt_rw], pre- and postcondition with [rw] *)
let rewrite_subs ~table ~rw ~stmt_rw program =
  let opt_rw o =
    match o with
    | Some e ->
        let e' = rw e in
        if e' == e then o else Some e'
    | None -> None
  in
  let decls =
    List.filter_map
      (fun d ->
        match d with
        | Ast.Dconst c when String.equal c.Ast.k_name table -> None
        | Ast.Dsub s ->
            let body0 = s.Ast.sub_body in
            let body' = stmt_rw body0 in
            let pre' = opt_rw s.Ast.sub_pre in
            let post' = opt_rw s.Ast.sub_post in
            if body' == body0 && pre' == s.Ast.sub_pre && post' == s.Ast.sub_post
            then Some d
            else
              Some
                (Ast.Dsub
                   { s with Ast.sub_body = body'; sub_pre = pre'; sub_post = post' })
        | d -> Some d)
      program.Ast.prog_decls
  in
  { program with Ast.prog_decls = decls }

(* variables and called subprograms an expression names *)
let names e =
  let acc = ref [] in
  Ast.iter_expr
    (function
      | Ast.Var v | Ast.Old v -> acc := v :: !acc
      | Ast.Call (f, _) -> acc := f :: !acc
      | _ -> ())
    e;
  List.sort_uniq compare !acc

let mentions table e = List.mem table (names e)

(* The rewrite, the transformation's and the scheme's replay alike: each
   lookup [table (e)] becomes [replacement[index_var := e]], a lookup
   [table (e) (k)] into an aggregate replacement becomes its [k]th
   component, every body is constant-folded and the table is dropped.
   Also says whether folding dropped a subterm of a body. *)
let rewrite_lookups ~table ~index_var ~replacement program =
  let rec lookup (e : Ast.expr) =
    let subst idx r = Ast.subst_expr [ (index_var, lookup idx) ] r in
    match (e, replacement) with
    | Ast.Index (Ast.Index (Ast.Var t, idx), Ast.Int_lit k), Ast.Aggregate rs
      when String.equal t table && k >= 0 && k < List.length rs ->
        subst idx (List.nth rs k)
    | Ast.Index (Ast.Var t, idx), _ when String.equal t table -> subst idx replacement
    | (Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Var _ | Ast.Old _ | Ast.Result), _ -> e
    | Ast.Index (a, b), _ -> Ast.Index (lookup a, lookup b)
    | Ast.Unop (op, a), _ -> Ast.Unop (op, lookup a)
    | Ast.Binop (op, a, b), _ -> Ast.Binop (op, lookup a, lookup b)
    | Ast.Call (f, args), _ -> Ast.Call (f, List.map lookup args)
    | Ast.Aggregate es, _ -> Ast.Aggregate (List.map lookup es)
    | Ast.Quantified (q, v, lo, hi, body), _ ->
        Ast.Quantified (q, v, lookup lo, lookup hi, lookup body)
  in
  let rw e = if mentions table e then lookup e else e in
  let discards = ref false in
  let program =
    rewrite_subs ~table ~rw program ~stmt_rw:(fun body ->
        let body = Ast.map_stmts (fun st -> [ Ast.map_own_exprs rw st ]) body in
        Ast.iter_stmts
          (Ast.iter_own_exprs (fun e -> if Transform.fold_discards e then discards := true))
          body;
        Transform.fold_stmts body)
  in
  (program, !discards)

(* The lookups of [table] in each subprogram of [program] that has one:
   each index with the loop and quantifier variables in scope there *)
let sites ~table program =
  List.filter_map
    (fun (s : Ast.subprogram) ->
      let acc = ref [] in
      let rec in_expr scope (e : Ast.expr) =
        match e with
        | Ast.Index (Ast.Var t, idx) when String.equal t table ->
            acc := (scope, idx) :: !acc;
            in_expr scope idx
        | Ast.Quantified (_, v, lo, hi, body) ->
            in_expr scope lo;
            in_expr scope hi;
            in_expr (v :: scope) body
        | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Var _ | Ast.Old _ | Ast.Result -> ()
        | Ast.Index (a, b) | Ast.Binop (_, a, b) -> in_expr scope a; in_expr scope b
        | Ast.Unop (_, a) -> in_expr scope a
        | Ast.Call (_, args) | Ast.Aggregate args -> List.iter (in_expr scope) args
      in
      let rec in_stmts scope ss = List.iter (in_stmt scope) ss
      and in_stmt scope (st : Ast.stmt) =
        Ast.iter_own_exprs (in_expr scope) st;
        match st with
        | Ast.If (branches, els) ->
            List.iter (fun (_, b) -> in_stmts scope b) branches;
            in_stmts scope els
        | Ast.For fl -> in_stmts (fl.Ast.for_var :: scope) fl.Ast.for_body
        | Ast.While wl -> in_stmts scope wl.Ast.while_body
        | Ast.Null | Ast.Assign _ | Ast.Call_stmt _ | Ast.Return _ | Ast.Assert _ -> ()
      in
      Option.iter (in_expr []) s.Ast.sub_pre;
      Option.iter (in_expr []) s.Ast.sub_post;
      in_stmts [] s.Ast.sub_body;
      if !acc = [] then None else Some (s, List.rev !acc))
    (Ast.subprograms program)

(* the first subprogram with a lookup of [table] that binds one of
   [names] there — [table] itself among them: an indexing of a parameter
   or local named like the table reads that, not the table *)
let binding_sub ~table names program =
  List.find_map
    (fun ((s : Ast.subprogram), _) ->
      Option.map (fun n -> (s.Ast.sub_name, n))
        (List.find_opt (fun n -> List.mem n names) (Transform.bound_names s)))
    (sites ~table program)

(** [reverse ~table ~index_var ~replacement ~helpers]: replace every
    occurrence [table (e)] by [replacement[index_var := e]], adding the
    (fresh) helper declarations (types, constants such as the S-box,
    functions such as gf_mul) first; the table constant is removed. *)
let reverse ~table ~index_var ~replacement ?(helpers = []) () =
  Transform.make_claiming
    ~name:(Printf.sprintf "reverse_table(%s)" table)
    ~category:Transform.Reverse_table_lookups
    ~describe:(Printf.sprintf "replace lookups of %s by explicit computation" table)
    (fun env0 program ->
      (* 1. install helpers so the replacement is interpretable *)
      let env', program = install_helpers ~helpers (env0, program) in
      (* 2. exhaustive applicability proof over the index range *)
      (match Equivalence.check_expr_table env' program ~table ~index_var ~replacement with
      | Equivalence.Agree _ -> ()
      | Equivalence.Refuted cx ->
          Transform.reject "replacement does not compute %s: %s" table
            (Equivalence.counterexample_to_string cx)
      | Equivalence.Undecided why ->
          Transform.reject "replacement does not compute %s: %s" table why);
      (match binding_sub ~table [ table ] program with
      | Some (sub, _) -> Transform.reject "%s binds %s, so its lookups read no table" sub table
      | None -> ());
      (* 3. rewrite lookups and drop the table *)
      let program, _ = rewrite_lookups ~table ~index_var ~replacement program in
      (* the table must really be gone *)
      let still_used = ref false in
      List.iter
        (function
          | Ast.Dsub s ->
              Ast.iter_stmts
                (fun st ->
                  Ast.iter_own_exprs
                    (fun e ->
                      Ast.iter_expr
                        (function
                          | Ast.Var v when String.equal v table -> still_used := true
                          | _ -> ())
                        e)
                    st)
                s.Ast.sub_body
          | _ -> ())
        program.Ast.prog_decls;
      if !still_used then
        Transform.reject "table %s is still referenced after rewriting" table;
      ( program,
        Some (Transform.Table_reversal { table; index_var; replacement; helpers }) ))

(* ------------------------------------------------------------------ *)
(* The scheme                                                          *)
(* ------------------------------------------------------------------ *)

exception Fails of string

let fails fmt = Printf.ksprintf (fun s -> raise (Fails s)) fmt

let runtime what env program =
  match Interp.make env program with
  | rt -> rt
  | exception (Interp.Stuck msg | Value.Runtime_error msg) ->
      fails "global initialisation of %s raises: %s" what msg
  | exception Interp.Out_of_fuel -> fails "global initialisation of %s runs out of fuel" what

let check_scheme ~table ~index_var ~replacement ~helpers (env_a, before) (env_b, after) =
  match
    (* the table is a constant array of the pre-image *)
    let lo, hi, elt_typ =
      match
        List.find_map
          (function
            | Ast.Dconst c when String.equal c.Ast.k_name table -> Some c.Ast.k_typ
            | _ -> None)
          before.Ast.prog_decls
      with
      | None -> fails "%s is not a constant of the pre-image" table
      | Some t -> (
          match Typecheck.resolve env_a t with
          | Ast.Tarray (lo, hi, elt) -> (lo, hi, elt)
          | _ -> fails "%s is not an array" table)
    in
    (* (4) a raising index raises on both sides: the replacement (each
       component a lookup can select) evaluates the index variable *)
    let components =
      match replacement with Ast.Aggregate rs -> rs | r -> [ r ]
    in
    if not (List.for_all (Transform.always_evaluates index_var) components) then
      fails "the replacement does not always evaluate %s" index_var;
    Ast.iter_expr
      (function
        | Ast.Quantified _ | Ast.Old _ | Ast.Result ->
            fails "the replacement binds or reads annotation-only names"
        | _ -> ())
      replacement;
    let free = List.filter (fun n -> not (String.equal n index_var)) (names replacement) in
    let ((env_i, prog_i) as installed) = install_helpers ~helpers (env_a, before) in
    (* (5) no name bound where a lookup is captures a free name of the
       replacement, or the table's own name *)
    (match binding_sub ~table (table :: free) prog_i with
    | Some (sub, n) when String.equal n table ->
        fails "%s binds %s, so its lookups read no table" sub n
    | Some (sub, n) -> fails "%s binds %s, a name of the replacement" sub n
    | None -> ());
    (* (3) every index has one modular type inside the table's range *)
    let moduli =
      List.concat_map
        (fun ((s : Ast.subprogram), lookups) ->
          let declared =
            List.map (fun (p : Ast.param) -> p.Ast.par_name) s.Ast.sub_params
            @ List.map (fun (v : Ast.var_decl) -> v.Ast.v_name) s.Ast.sub_locals
          in
          List.map
            (fun (scope, idx) ->
              let in_scope = scope @ declared in
              if List.length (List.sort_uniq compare in_scope) < List.length in_scope then
                fails "%s rebinds a name at a lookup of %s" s.Ast.sub_name table;
              let scoped =
                { s with
                  Ast.sub_locals =
                    s.Ast.sub_locals
                    @ List.map
                        (fun v -> { Ast.v_name = v; v_typ = Ast.Tint None; v_init = None })
                        scope }
              in
              match Typecheck.expr_type env_i (Some scoped) idx with
              | Ast.Tmod m when lo <= 0 && m - 1 <= hi -> m
              | _ -> fails "an index of %s in %s may leave its range" table s.Ast.sub_name
              | exception Typecheck.Type_error msg -> fails "cannot type an index: %s" msg)
            lookups)
        (sites ~table prog_i)
    in
    let m =
      match List.sort_uniq compare moduli with
      | [ m ] -> m
      | [] -> fails "%s is never read" table
      | _ -> fails "the lookups of %s have more than one index type" table
    in
    (* the replacement normalised as at a lookup: the checked body of a
       function of an index of that type *)
    let probe = "scheme_probe__" ^ table in
    let normalised =
      let sub =
        { Ast.sub_name = probe;
          sub_params = [ { Ast.par_name = index_var; par_mode = Ast.Mode_in; par_typ = Ast.Tmod m } ];
          sub_return = Some elt_typ; sub_pre = None; sub_post = None; sub_locals = [];
          sub_body = [ Ast.Return (Some replacement) ] }
      in
      if Ast.find_sub prog_i probe <> None then fails "%s is taken" probe;
      match
        Typecheck.check_incremental ~baseline:installed
          { prog_i with Ast.prog_decls = prog_i.Ast.prog_decls @ [ Ast.Dsub sub ] }
      with
      | _, p -> (
          match (Ast.find_sub_exn p probe).Ast.sub_body with
          | [ Ast.Return (Some e) ] -> e
          | _ -> fails "unexpected probe body")
      | exception Typecheck.Type_error msg ->
          fails "the replacement does not type-check: %s" msg
    in
    (* (1) replaying the rewrite on the pre-image yields the step's
       after, and the transformation's constant folding drops no subterm *)
    let replayed, discards =
      rewrite_lookups ~table ~index_var ~replacement:normalised prog_i
    in
    if discards then fails "constant folding drops a subterm";
    if not (Share.same_decls replayed after) then
      fails "replaying the rewrite does not reproduce the step";
    (* the replacement reads no global variable: a lookup may run after
       the program wrote one, while the table check below runs at the
       initial state *)
    (match List.find_opt (function Ast.Dvar _ -> true | _ -> false) (Share.closure after free) with
    | Some d -> fails "the replacement reads the global variable %s" (Ast.decl_name d)
    | None -> ());
    (* (2) the replacement equals the table at every index of the index
       type, value for value (moduli included), evaluated in the step's
       after as at a lookup *)
    let _, data = Value.as_array (Interp.global_value (runtime "the pre-image" env_a before) table) in
    let rt = runtime "the step's after" env_b after in
    for v = 0 to m - 1 do
      match Interp.eval_expr rt [ (index_var, Value.Vmod (v, m)) ] normalised with
      | got when got = data.(v - lo) -> ()
      | got ->
          fails "the replacement differs from %s at %d: %s vs %s" table v
            (Value.to_string data.(v - lo)) (Value.to_string got)
      | exception (Interp.Stuck msg | Value.Runtime_error msg) ->
          fails "the replacement raises at %d: %s" v msg
      | exception Interp.Out_of_fuel -> fails "the replacement runs out of fuel at %d" v
    done
  with
  | () -> Ok ()
  | exception Fails why -> Error why
  | exception Transform.Not_applicable why -> Error why
