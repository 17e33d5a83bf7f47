(* Modifying redundant or intermediate computations and storage (§5.1):
   housekeeping transformations that shorten verification conditions or
   tidy the code for annotation.

   - [inline_temp]: remove an intermediate variable with a single use.
   - [introduce_temp]: name a subexpression.
   - [remove_dead_assignments]: drop assignments to variables never read
     afterwards.
   - [rename_local] / [rename_sub]: align names with the specification. *)

open Minispark

(* replace expression [target] by [by] everywhere in a statement list *)
let replace_everywhere target by stmts =
  let rw = Ast.map_expr (fun e -> if Ast.equal_expr e target then by else e) in
  Ast.map_stmts (fun s -> [ Ast.map_own_exprs rw s ]) stmts

(** [inline_temp ~proc ~temp]: the local [temp] is assigned exactly once
    (at top level, a pure right-hand side) and its value substituted into
    every later use; the declaration and assignment disappear. *)
let inline_temp ~proc ~temp =
  Transform.make
    ~name:(Printf.sprintf "inline_temp(%s.%s)" proc temp)
    ~category:Transform.Modify_storage
    ~describe:(Printf.sprintf "inline the intermediate variable %s of %s" temp proc)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      let body = sub.Ast.sub_body in
      (* find the unique top-level assignment to temp *)
      let assign_idx =
        List.mapi (fun k s -> (k, s)) body
        |> List.filter_map (fun (k, s) ->
               match s with
               | Ast.Assign (Ast.Lvar x, e) when String.equal x temp -> Some (k, e)
               | _ -> None)
      in
      match assign_idx with
      | [ (k, rhs) ] ->
          (* the variables of rhs must not be reassigned between the
             definition and any use; conservatively: not written anywhere
             after position k *)
          let after = List.filteri (fun j _ -> j > k) body in
          let rhs_vars = Ast.expr_vars rhs in
          let written_after = Transform.written_vars program after in
          if List.exists (fun v -> List.mem v written_after) rhs_vars then
            Transform.reject "right-hand side of %s changes after its definition" temp;
          (* temp must not be written again (checked: single assignment at
             top level; reject nested writes too) *)
          let nested_writes =
            Transform.written_vars program after |> List.filter (String.equal temp)
          in
          if nested_writes <> [] then Transform.reject "%s is written more than once" temp;
          let body' =
            List.filteri (fun j _ -> j <> k) body
            |> replace_everywhere (Ast.Var temp) rhs
          in
          let locals =
            List.filter (fun (v : Ast.var_decl) -> not (String.equal v.Ast.v_name temp))
              sub.Ast.sub_locals
          in
          Ast.replace_sub program
            { sub with Ast.sub_body = body'; Ast.sub_locals = locals }
      | [] -> Transform.reject "%s is never assigned at the top level of %s" temp proc
      | _ -> Transform.reject "%s is assigned more than once" temp)

(** [introduce_temp ~proc ~at ~name ~typ ~expr]: insert
    [name := expr] before statement [at] and replace occurrences of [expr]
    in the remainder of the body. *)
let introduce_temp ~proc ~at ~name ~typ ~expr =
  Transform.make
    ~name:(Printf.sprintf "introduce_temp(%s.%s)" proc name)
    ~category:Transform.Modify_storage
    ~describe:(Printf.sprintf "name the expression %s as %s in %s"
                 (Pretty.expr_to_string expr) name proc)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      if List.exists (fun (v : Ast.var_decl) -> String.equal v.Ast.v_name name)
           sub.Ast.sub_locals
      then Transform.reject "local %s already exists" name;
      let body = sub.Ast.sub_body in
      let before = List.filteri (fun k _ -> k < at) body in
      let rest = List.filteri (fun k _ -> k >= at) body in
      let rest' = replace_everywhere expr (Ast.Var name) rest in
      if Ast.equal_stmts rest rest' then
        Transform.reject "expression does not occur after statement %d" at;
      (* the expression's variables must not be written in the remainder *)
      let written = Transform.written_vars program rest in
      if List.exists (fun v -> List.mem v written) (Ast.expr_vars expr) then
        Transform.reject "a variable of the expression is modified in the remainder";
      let body' = before @ (Ast.Assign (Ast.Lvar name, expr) :: rest') in
      let locals = sub.Ast.sub_locals @ [ { Ast.v_name = name; v_typ = typ; v_init = None } ] in
      Ast.replace_sub program { sub with Ast.sub_body = body'; Ast.sub_locals = locals })

(** Remove top-level assignments to locals that are never read afterwards
    and are not visible outside (not parameters, not globals). *)
let remove_dead_assignments ~proc =
  Transform.make
    ~name:(Printf.sprintf "remove_dead_assignments(%s)" proc)
    ~category:Transform.Modify_computation
    ~describe:(Printf.sprintf "drop assignments to never-read locals of %s" proc)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      let local_names = List.map (fun (v : Ast.var_decl) -> v.Ast.v_name) sub.Ast.sub_locals in
      let body = sub.Ast.sub_body in
      let n = List.length body in
      let arr = Array.of_list body in
      let keep = Array.make n true in
      let changed = ref false in
      for k = n - 1 downto 0 do
        match arr.(k) with
        | Ast.Assign (Ast.Lvar x, _) when List.mem x local_names ->
            let rest =
              Array.to_list (Array.sub arr (k + 1) (n - k - 1))
              |> List.filteri (fun j _ -> keep.(k + 1 + j))
            in
            let read_later = List.mem x (Transform.read_vars rest) in
            let written_as_whole_later =
              (* passing x as an out actual later still needs its slot *)
              List.mem x (Transform.written_vars program rest)
            in
            if (not read_later) && not written_as_whole_later then begin
              keep.(k) <- false;
              changed := true
            end
        | _ -> ()
      done;
      if not !changed then Transform.reject "no dead assignments in %s" proc;
      let body' = List.filteri (fun k _ -> keep.(k)) body in
      Ast.replace_sub program { sub with Ast.sub_body = body' })

(** Rename a local variable (or parameter) of one subprogram. *)
let rename_local ~proc ~from_name ~to_name =
  Transform.make
    ~name:(Printf.sprintf "rename_local(%s.%s->%s)" proc from_name to_name)
    ~category:Transform.Modify_storage
    ~describe:(Printf.sprintf "rename %s to %s inside %s" from_name to_name proc)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      let clash =
        List.exists (fun (v : Ast.var_decl) -> String.equal v.Ast.v_name to_name)
          sub.Ast.sub_locals
        || List.exists (fun (p : Ast.param) -> String.equal p.Ast.par_name to_name)
             sub.Ast.sub_params
      in
      if clash then Transform.reject "name %s already in scope" to_name;
      let rn_expr =
        Ast.map_expr (function
          | Ast.Var x when String.equal x from_name -> Ast.Var to_name
          | Ast.Old x when String.equal x from_name -> Ast.Old to_name
          | e -> e)
      in
      let rec rn_lv = function
        | Ast.Lvar x when String.equal x from_name -> Ast.Lvar to_name
        | Ast.Lvar x -> Ast.Lvar x
        | Ast.Lindex (lv, i) -> Ast.Lindex (rn_lv lv, rn_expr i)
      in
      let body =
        Ast.map_stmts
          (fun s ->
            let s =
              match s with
              | Ast.Assign (lv, e) -> Ast.Assign (rn_lv lv, e)
              | Ast.For fl when String.equal fl.Ast.for_var from_name ->
                  Ast.For { fl with Ast.for_var = to_name }
              | s -> s
            in
            [ Ast.map_own_exprs rn_expr s ])
          sub.Ast.sub_body
      in
      let locals =
        List.map
          (fun (v : Ast.var_decl) ->
            if String.equal v.Ast.v_name from_name then { v with Ast.v_name = to_name }
            else v)
          sub.Ast.sub_locals
      in
      let params =
        List.map
          (fun (p : Ast.param) ->
            if String.equal p.Ast.par_name from_name then { p with Ast.par_name = to_name }
            else p)
          sub.Ast.sub_params
      in
      let pre = Option.map rn_expr sub.Ast.sub_pre in
      let post = Option.map rn_expr sub.Ast.sub_post in
      Ast.replace_sub program
        { sub with Ast.sub_body = body; sub_locals = locals; sub_params = params;
          sub_pre = pre; sub_post = post })

(* every use of subprogram [from_name] — its declaration, the calls in
   bodies, contracts and initialisers — renamed to [to_name] *)
let rename_calls ~from_name ~to_name program =
  let rn_expr =
    Ast.map_expr (function
      | Ast.Call (f, args) when String.equal f from_name -> Ast.Call (to_name, args)
      | e -> e)
  in
  let rn_stmt s =
    let s =
      match s with
      | Ast.Call_stmt (f, args) when String.equal f from_name -> Ast.Call_stmt (to_name, args)
      | s -> s
    in
    [ Ast.map_own_exprs rn_expr s ]
  in
  let rn_opt o =
    match o with
    | Some e ->
        let e' = rn_expr e in
        if e' == e then o else Some e'
    | None -> None
  in
  let rn_var (v : Ast.var_decl) =
    let init = rn_opt v.Ast.v_init in
    if init == v.Ast.v_init then v else { v with Ast.v_init = init }
  in
  let decls =
    Ast.map_sharing
      (fun d ->
        match d with
        | Ast.Dsub s ->
            let name = if String.equal s.Ast.sub_name from_name then to_name else s.Ast.sub_name in
            let body = Ast.map_stmts rn_stmt s.Ast.sub_body in
            let pre = rn_opt s.Ast.sub_pre and post = rn_opt s.Ast.sub_post in
            let locals = Ast.map_sharing rn_var s.Ast.sub_locals in
            if
              name == s.Ast.sub_name && body == s.Ast.sub_body && pre == s.Ast.sub_pre
              && post == s.Ast.sub_post && locals == s.Ast.sub_locals
            then d
            else
              Ast.Dsub
                { s with Ast.sub_name = name; sub_body = body; sub_pre = pre; sub_post = post;
                  sub_locals = locals }
        | Ast.Dconst c ->
            let v = rn_expr c.Ast.k_value in
            if v == c.Ast.k_value then d else Ast.Dconst { c with Ast.k_value = v }
        | Ast.Dvar v ->
            let v' = rn_var v in
            if v' == v then d else Ast.Dvar v'
        | Ast.Dtype _ -> d)
      program.Ast.prog_decls
  in
  if decls == program.Ast.prog_decls then program else { program with Ast.prog_decls = decls }

(** Rename a subprogram program-wide (aligning code structure with the
    specification's nomenclature).  The step claims it
    ({!Transform.Renaming}). *)
let rename_sub ~from_name ~to_name =
  Transform.make_claiming
    ~name:(Printf.sprintf "rename_sub(%s->%s)" from_name to_name)
    ~category:Transform.Modify_storage
    ~describe:(Printf.sprintf "rename subprogram %s to %s" from_name to_name)
    (fun _env program ->
      (* a call of a name an object has is read as an indexing *)
      if List.exists (fun d -> String.equal (Ast.decl_name d) to_name) program.Ast.prog_decls
      then Transform.reject "%s is already declared" to_name;
      if Ast.find_sub program from_name = None then
        Transform.reject "no subprogram named %s" from_name;
      let renamed = rename_calls ~from_name ~to_name program in
      (* a call where [to_name] is bound would read that object instead *)
      List.iter2
        (fun d d' ->
          match (d, d') with
          | Ast.Dsub s, Ast.Dsub s'
            when s != s' && List.mem to_name (Transform.bound_names s) ->
              Transform.reject "%s binds %s" s.Ast.sub_name to_name
          | _ -> ())
        program.Ast.prog_decls renamed.Ast.prog_decls;
      (renamed, Some (Transform.Renaming { from_name; to_name })))

let check_renaming ~from_name ~to_name (_, before) (_, after) =
  if Share.same_decls (rename_calls ~from_name:to_name ~to_name:from_name after) before
  then Ok ()
  else Error (Printf.sprintf "renaming %s back to %s does not give the step's before" to_name from_name)

(** Remove an unused type or constant declaration (tidying after data
    structures or tables have been replaced). *)
let remove_unused_decl ~name =
  Transform.make
    ~name:(Printf.sprintf "remove_unused_decl(%s)" name)
    ~category:Transform.Modify_storage
    ~describe:(Printf.sprintf "drop the unused declaration %s" name)
    (fun _env program ->
      let used = ref false in
      let check_typ t =
        let rec go = function
          | Ast.Tnamed n when String.equal n name -> used := true
          | Ast.Tarray (_, _, elt) -> go elt
          | _ -> ()
        in
        go t
      in
      let check_expr e =
        Ast.iter_expr
          (function
            | Ast.Var x | Ast.Old x -> if String.equal x name then used := true
            | Ast.Call (f, _) -> if String.equal f name then used := true
            | _ -> ())
          e
      in
      List.iter
        (function
          | Ast.Dtype (n, t) -> if not (String.equal n name) then check_typ t
          | Ast.Dconst c ->
              if not (String.equal c.Ast.k_name name) then begin
                check_typ c.Ast.k_typ;
                check_expr c.Ast.k_value
              end
          | Ast.Dvar v ->
              check_typ v.Ast.v_typ;
              Option.iter check_expr v.Ast.v_init
          | Ast.Dsub s ->
              if not (String.equal s.Ast.sub_name name) then begin
                List.iter (fun (p : Ast.param) -> check_typ p.Ast.par_typ) s.Ast.sub_params;
                List.iter
                  (fun (v : Ast.var_decl) ->
                    check_typ v.Ast.v_typ;
                    Option.iter check_expr v.Ast.v_init)
                  s.Ast.sub_locals;
                Option.iter (fun t -> check_typ t) s.Ast.sub_return;
                Option.iter check_expr s.Ast.sub_pre;
                Option.iter check_expr s.Ast.sub_post;
                Ast.iter_stmts
                  (fun st ->
                    (match st with
                    | Ast.Call_stmt (f, _) when String.equal f name -> used := true
                    | _ -> ());
                    Ast.iter_own_exprs check_expr st)
                  s.Ast.sub_body
              end)
        program.Ast.prog_decls;
      if !used then Transform.reject "%s is still referenced" name;
      if
        not
          (List.exists
             (function
               | Ast.Dtype (n, _) -> String.equal n name
               | Ast.Dconst c -> String.equal c.Ast.k_name name
               | Ast.Dsub s -> String.equal s.Ast.sub_name name
               | _ -> false)
             program.Ast.prog_decls)
      then Transform.reject "no declaration named %s" name;
      Ast.remove_decl program name)

(** Rename a type program-wide (aligning with specification nomenclature). *)
let rename_type ~from_name ~to_name =
  Transform.make
    ~name:(Printf.sprintf "rename_type(%s->%s)" from_name to_name)
    ~category:Transform.Modify_storage
    ~describe:(Printf.sprintf "rename type %s to %s" from_name to_name)
    (fun _env program ->
      if List.exists (fun (n, _) -> String.equal n to_name) (Ast.type_decls program) then
        Transform.reject "a type named %s already exists" to_name;
      let rec rn_typ = function
        | Ast.Tnamed n when String.equal n from_name -> Ast.Tnamed to_name
        | Ast.Tarray (lo, hi, elt) -> Ast.Tarray (lo, hi, rn_typ elt)
        | t -> t
      in
      let decls =
        List.map
          (function
            | Ast.Dtype (n, t) ->
                Ast.Dtype ((if String.equal n from_name then to_name else n), rn_typ t)
            | Ast.Dconst c -> Ast.Dconst { c with Ast.k_typ = rn_typ c.Ast.k_typ }
            | Ast.Dvar v -> Ast.Dvar { v with Ast.v_typ = rn_typ v.Ast.v_typ }
            | Ast.Dsub s ->
                Ast.Dsub
                  {
                    s with
                    Ast.sub_params =
                      List.map
                        (fun (p : Ast.param) -> { p with Ast.par_typ = rn_typ p.Ast.par_typ })
                        s.Ast.sub_params;
                    sub_locals =
                      List.map
                        (fun (v : Ast.var_decl) -> { v with Ast.v_typ = rn_typ v.Ast.v_typ })
                        s.Ast.sub_locals;
                    sub_return = Option.map rn_typ s.Ast.sub_return;
                  })
          program.Ast.prog_decls
      in
      { program with Ast.prog_decls = decls })
