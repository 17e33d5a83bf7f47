(* Reversing table lookups (§6.2.1, case-study-specific category):
   a precomputed table is replaced by the explicit computation it caches
   ("based on the documentation"), and the table is removed.

   The user supplies the replacement expression (over a distinguished index
   variable) and, optionally, helper definitions the expression calls.  The
   applicability check is an exhaustive proof over the table's finite index
   range: every entry must equal the interpreted replacement — the
   strongest possible semantics-preservation evidence. *)

open Minispark

(** [reverse ~table ~index_var ~replacement ~helpers]: replace every
    occurrence [table (e)] by [replacement[index_var := e]], adding the
    (fresh) helper declarations (types, constants such as the S-box,
    functions such as gf_mul) first; the table constant is removed. *)
let reverse ~table ~index_var ~replacement ?(helpers = []) () =
  Transform.make
    ~name:(Printf.sprintf "reverse_table(%s)" table)
    ~category:Transform.Reverse_table_lookups
    ~describe:(Printf.sprintf "replace lookups of %s by explicit computation" table)
    (fun env0 program ->
      let baseline = (env0, program) in
      (* 1. install helpers so the replacement is interpretable *)
      let already_declared program name =
        List.exists (fun d -> String.equal (Ast.decl_name d) name) program.Ast.prog_decls
      in
      (* helpers go, in order, before the first *original* subprogram so
         every later declaration (and helpers further down the list) can
         use them *)
      let anchor =
        match Ast.subprograms program with
        | first :: _ -> first.Ast.sub_name
        | [] -> Transform.reject "program has no subprograms"
      in
      let program =
        List.fold_left
          (fun program (decl : Ast.decl) ->
            if already_declared program (Ast.decl_name decl) then program
            else Ast.insert_decl_before program ~anchor decl)
          program helpers
      in
      let env', program =
        match Typecheck.check_incremental ~baseline program with
        | r -> r
        | exception Typecheck.Type_error msg ->
            Transform.reject "helper definitions do not type-check: %s" msg
      in
      (* 2. exhaustive applicability proof over the index range *)
      (match Equivalence.check_expr_table env' program ~table ~index_var ~replacement with
      | Equivalence.Agree _ -> ()
      | Equivalence.Refuted cx ->
          Transform.reject "replacement does not compute %s: %s" table
            (Equivalence.counterexample_to_string cx)
      | Equivalence.Undecided why ->
          Transform.reject "replacement does not compute %s: %s" table why);
      (* 3. rewrite lookups and drop the table *)
      let rw =
        Ast.map_expr (fun e ->
            match e with
            | Ast.Index (Ast.Var t, idx) when String.equal t table ->
                Transform.fold_expr (Ast.subst_expr [ (index_var, idx) ] replacement)
            | e -> e)
      in
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
                let body' =
                  Transform.fold_stmts
                    (Ast.map_stmts (fun st -> [ Ast.map_own_exprs rw st ]) body0)
                in
                let pre' = opt_rw s.Ast.sub_pre in
                let post' = opt_rw s.Ast.sub_post in
                if
                  body' == body0 && pre' == s.Ast.sub_pre
                  && post' == s.Ast.sub_post
                then Some d
                else
                  Some
                    (Ast.Dsub
                       {
                         s with
                         Ast.sub_body = body';
                         sub_pre = pre';
                         sub_post = post';
                       })
            | d -> Some d)
          program.Ast.prog_decls
      in
      let program = { program with Ast.prog_decls = decls } in
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
      program)
