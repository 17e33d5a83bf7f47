open Minispark
module SSet = Set.Make (String)

module D = struct
  type t = SSet.t

  let join = SSet.union
  let widen = SSet.union
  let equal = SSet.equal
end

module DF = Dataflow.Make (D)

let vars_of e = SSet.of_list (Ast.expr_vars e)

let vars_of_list es =
  List.fold_left (fun acc e -> SSet.union acc (vars_of e)) SSet.empty es

(* Index expressions appearing inside an lvalue (reads even when the
   lvalue as a whole is written). *)
let lvalue_index_vars lv =
  let acc = ref SSet.empty in
  Ast.iter_lvalue_exprs
    (fun e -> acc := SSet.union !acc (vars_of e))
    lv;
  !acc

(* Positions (0-based) of out / in-out parameters of each callee. *)
let out_positions program =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (sub : Ast.subprogram) ->
      let ps =
        List.mapi (fun i (p : Ast.param) -> (i, p.Ast.par_mode)) sub.Ast.sub_params
      in
      let outs =
        List.filter_map
          (fun (i, m) ->
            match m with
            | Ast.Mode_out | Ast.Mode_in_out -> Some i
            | Ast.Mode_in -> None)
          ps
      in
      Hashtbl.replace tbl sub.Ast.sub_name outs)
    (Ast.subprograms program);
  fun name -> try Hashtbl.find tbl name with Not_found -> []

(* The base variable of an actual passed in a writable position: actuals
   are normalised lvalue-shaped expressions ([Var] or nested [Index]). *)
let rec actual_base (e : Ast.expr) =
  match e with
  | Ast.Var x -> Some x
  | Ast.Index (a, _) -> actual_base a
  | _ -> None

let rec actual_index_vars (e : Ast.expr) =
  match e with
  | Ast.Var _ -> SSet.empty
  | Ast.Index (a, i) -> SSet.union (actual_index_vars a) (vars_of i)
  | _ -> vars_of e

(* Split a call's argument effects: full reads for [in] actuals, index
   reads + base writes for out / in-out actuals. *)
let call_effects program f args =
  match Ast.find_sub program f with
  | None -> (vars_of_list args, SSet.empty)
  | Some callee ->
      let modes = List.map (fun (p : Ast.param) -> p.Ast.par_mode) callee.Ast.sub_params in
      let rec go reads writes modes args =
        match (modes, args) with
        | [], rest -> (SSet.union reads (vars_of_list rest), writes)
        | _, [] -> (reads, writes)
        | m :: ms, a :: rest -> (
            match m with
            | Ast.Mode_in -> go (SSet.union reads (vars_of a)) writes ms rest
            | Ast.Mode_out | Ast.Mode_in_out ->
                let reads = SSet.union reads (actual_index_vars a) in
                let writes =
                  match actual_base a with
                  | Some b -> SSet.add b writes
                  | None -> writes
                in
                go reads writes ms rest)
      in
      go SSet.empty SSet.empty modes args

(* ------------------------------------------------------------------ *)
(* Definite initialization + unreachable code (forward)                *)
(* ------------------------------------------------------------------ *)

let init_and_reachability program (sub : Ast.subprogram) =
  let diags = ref [] in
  let flagged_uninit = Hashtbl.create 4 in
  let flagged_unreach = Hashtbl.create 4 in
  let cur_stmt = ref None in
  (* variables whose initialization we track: locals and out params *)
  let tracked =
    SSet.union
      (SSet.of_list (List.map (fun v -> v.Ast.v_name) sub.Ast.sub_locals))
      (SSet.of_list
         (List.filter_map
            (fun (p : Ast.param) ->
              if p.Ast.par_mode = Ast.Mode_out then Some p.Ast.par_name else None)
            sub.Ast.sub_params))
  in
  let initial =
    let params =
      List.filter_map
        (fun (p : Ast.param) ->
          match p.Ast.par_mode with
          | Ast.Mode_in | Ast.Mode_in_out -> Some p.Ast.par_name
          | Ast.Mode_out -> None)
        sub.Ast.sub_params
    in
    let inited_locals =
      List.filter_map
        (fun (v : Ast.var_decl) ->
          if v.Ast.v_init <> None then Some v.Ast.v_name else None)
        sub.Ast.sub_locals
    in
    let globals = List.map (fun v -> v.Ast.v_name) (Ast.global_vars program) in
    let consts = List.map (fun c -> c.Ast.k_name) (Ast.constants program) in
    SSet.of_list (params @ inited_locals @ globals @ consts)
  in
  let report_reads state vs =
    SSet.iter
      (fun x ->
        if SSet.mem x tracked && (not (SSet.mem x state))
           && not (Hashtbl.mem flagged_uninit x)
        then begin
          Hashtbl.replace flagged_uninit x ();
          let line =
            match !cur_stmt with
            | Some st -> Diag.anchor program ~sub:sub.Ast.sub_name st
            | None -> 0
          in
          diags :=
            Diag.make ~sub:sub.Ast.sub_name ~line Diag.FLOW_UNINIT
              (Printf.sprintf "'%s' may be read before it is ever assigned" x)
            :: !diags
        end)
      vs
  in
  let atomic state (stmt : Ast.stmt) =
    match stmt with
    | Ast.Null -> state
    | Ast.Assert _ -> state (* annotation: not executed *)
    | Ast.Assign (lv, e) ->
        report_reads state (SSet.union (vars_of e) (lvalue_index_vars lv));
        SSet.add (Ast.lvalue_base lv) state
    | Ast.Call_stmt (f, args) ->
        let reads, writes = call_effects program f args in
        report_reads state reads;
        SSet.union state writes
    | Ast.Return (Some e) ->
        report_reads state (vars_of e);
        state
    | Ast.Return None -> state
    | Ast.If _ | Ast.For _ | Ast.While _ -> state
  in
  let guard state e =
    report_reads state (vars_of e);
    state
  in
  let enter_for state (fl : Ast.for_loop) = SSet.add fl.Ast.for_var state in
  let exit_for state (fl : Ast.for_loop) = SSet.remove fl.Ast.for_var state in
  let observe state (stmt : Ast.stmt) =
    (match state with Some _ -> cur_stmt := Some stmt | None -> ());
    match state with
    | Some _ -> ()
    | None ->
        let key = Pretty.stmts_to_string [ stmt ] in
        if not (Hashtbl.mem flagged_unreach key) then begin
          Hashtbl.replace flagged_unreach key ();
          let line = Diag.anchor program ~sub:sub.Ast.sub_name stmt in
          diags :=
            Diag.make ~sub:sub.Ast.sub_name ~line Diag.FLOW_UNREACHABLE
              "statement is unreachable: every path has already returned"
            :: !diags
        end
  in
  let hooks = { DF.atomic; guard; enter_for; exit_for; observe } in
  let (_ : SSet.t option) = DF.exec hooks initial sub.Ast.sub_body in
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Out parameter never assigned                                        *)
(* ------------------------------------------------------------------ *)

let out_unset program (sub : Ast.subprogram) =
  let written =
    SSet.of_list
      (Ast.written_vars ~out_params_of:(out_positions program) sub.Ast.sub_body)
  in
  List.filter_map
    (fun (p : Ast.param) ->
      if p.Ast.par_mode = Ast.Mode_out && not (SSet.mem p.Ast.par_name written)
      then
        Some
          (Diag.make ~sub:sub.Ast.sub_name Diag.FLOW_OUT_UNSET
             (Printf.sprintf "out parameter '%s' is never assigned"
                p.Ast.par_name))
      else None)
    sub.Ast.sub_params

(* ------------------------------------------------------------------ *)
(* Ineffective assignments (backward liveness)                         *)
(* ------------------------------------------------------------------ *)

let ineffective program (sub : Ast.subprogram) =
  let diags = ref [] in
  let locals = List.map (fun v -> v.Ast.v_name) sub.Ast.sub_locals in
  let param_names = List.map (fun (p : Ast.param) -> p.Ast.par_name) sub.Ast.sub_params in
  let assignable = SSet.of_list (locals @ param_names) in
  let exit_live =
    (* out and in-out parameters and globals survive the subprogram *)
    let outs =
      List.filter_map
        (fun (p : Ast.param) ->
          match p.Ast.par_mode with
          | Ast.Mode_out | Ast.Mode_in_out -> Some p.Ast.par_name
          | Ast.Mode_in -> None)
        sub.Ast.sub_params
    in
    let globals = List.map (fun v -> v.Ast.v_name) (Ast.global_vars program) in
    SSet.of_list (outs @ globals)
  in
  let rec live_stmts ~emit live stmts =
    List.fold_right (fun stmt live -> live_stmt ~emit live stmt) stmts live
  and live_stmt ~emit live (stmt : Ast.stmt) =
    match stmt with
    | Ast.Null -> live
    | Ast.Assert e -> SSet.union live (vars_of e)
    | Ast.Assign (Ast.Lvar x, e) ->
        if emit && SSet.mem x assignable && not (SSet.mem x live) then
          diags :=
            Diag.make ~sub:sub.Ast.sub_name
              ~line:(Diag.anchor program ~sub:sub.Ast.sub_name stmt)
              Diag.FLOW_INEFFECTIVE
              (Printf.sprintf
                 "assignment to '%s' is ineffective: the value is never used" x)
            :: !diags;
        SSet.union (SSet.remove x live) (vars_of e)
    | Ast.Assign (lv, e) ->
        (* element write: a partial update, the rest of the array flows on *)
        SSet.union live
          (SSet.add (Ast.lvalue_base lv)
             (SSet.union (vars_of e) (lvalue_index_vars lv)))
    | Ast.Return (Some e) -> SSet.union exit_live (vars_of e)
    | Ast.Return None -> exit_live
    | Ast.Call_stmt (f, args) -> (
        match Ast.find_sub program f with
        | None -> SSet.union live (vars_of_list args)
        | Some callee ->
            let modes =
              List.map (fun (p : Ast.param) -> p.Ast.par_mode) callee.Ast.sub_params
            in
            let rec go live modes args =
              match (modes, args) with
              | [], rest -> SSet.union live (vars_of_list rest)
              | _, [] -> live
              | m :: ms, a :: rest -> (
                  let live = go live ms rest in
                  match m with
                  | Ast.Mode_in -> SSet.union live (vars_of a)
                  | Ast.Mode_out -> (
                      let live = SSet.union live (actual_index_vars a) in
                      match a with
                      | Ast.Var x -> SSet.remove x live
                      | _ -> live (* element actual: partial write *))
                  | Ast.Mode_in_out ->
                      SSet.union live
                        (match actual_base a with
                        | Some b -> SSet.add b (actual_index_vars a)
                        | None -> actual_index_vars a))
            in
            go live modes args)
    | Ast.If (branches, els) ->
        let live_branches =
          List.map
            (fun (g, body) -> SSet.union (vars_of g) (live_stmts ~emit live body))
            branches
        in
        let live_else = live_stmts ~emit live els in
        let guards = vars_of_list (List.map fst branches) in
        SSet.union guards (List.fold_left SSet.union live_else live_branches)
    | Ast.For fl ->
        let bounds = SSet.union (vars_of fl.Ast.for_lo) (vars_of fl.Ast.for_hi) in
        let invs = vars_of_list fl.Ast.for_invariants in
        let rec fix acc =
          let acc' = SSet.union acc (live_stmts ~emit:false acc fl.Ast.for_body) in
          if SSet.equal acc acc' then acc else fix acc'
        in
        let stable = fix (SSet.union live invs) in
        let entry = live_stmts ~emit stable fl.Ast.for_body in
        let entry = SSet.remove fl.Ast.for_var (SSet.union stable entry) in
        SSet.union entry bounds
    | Ast.While wl ->
        let cond = vars_of wl.Ast.while_cond in
        let invs = vars_of_list wl.Ast.while_invariants in
        let rec fix acc =
          let acc' =
            SSet.union acc (live_stmts ~emit:false acc wl.Ast.while_body)
          in
          if SSet.equal acc acc' then acc else fix acc'
        in
        let stable = fix (SSet.union live (SSet.union cond invs)) in
        let entry = live_stmts ~emit stable wl.Ast.while_body in
        SSet.union (SSet.union stable entry) cond
  in
  let entry = live_stmts ~emit:true exit_live sub.Ast.sub_body in
  (* declaration initializers are assignments too: fold them backward
     from the body's entry liveness (a later local's initializer may read
     an earlier one).  A never-referenced local is FLOW_UNUSED territory,
     not a dead store on top. *)
  let referenced =
    SSet.union
      (SSet.of_list (Ast.read_vars sub.Ast.sub_body))
      (SSet.of_list
         (Ast.written_vars ~out_params_of:(out_positions program)
            sub.Ast.sub_body))
  in
  let live = ref entry in
  let dead_inits =
    List.fold_right
      (fun (v : Ast.var_decl) acc ->
        match v.Ast.v_init with
        | None -> acc
        | Some e ->
            let is_dead = not (SSet.mem v.Ast.v_name !live) in
            live := SSet.union (SSet.remove v.Ast.v_name !live) (vars_of e);
            if is_dead && SSet.mem v.Ast.v_name referenced then
              Diag.make ~sub:sub.Ast.sub_name Diag.FLOW_DEAD_INIT
                (Printf.sprintf
                   "initializer of '%s' is dead: the value is overwritten \
                    before any read"
                   v.Ast.v_name)
              :: acc
            else acc)
      sub.Ast.sub_locals []
  in
  List.rev !diags @ dead_inits

(* ------------------------------------------------------------------ *)
(* Unused locals and parameters                                        *)
(* ------------------------------------------------------------------ *)

let unused program (sub : Ast.subprogram) ~out_unset_names =
  let used =
    let reads = SSet.of_list (Ast.read_vars sub.Ast.sub_body) in
    let writes =
      SSet.of_list
        (Ast.written_vars ~out_params_of:(out_positions program)
           sub.Ast.sub_body)
    in
    let annots =
      vars_of_list
        (Option.to_list sub.Ast.sub_pre @ Option.to_list sub.Ast.sub_post)
    in
    SSet.union reads (SSet.union writes annots)
  in
  let check_name kind name =
    if SSet.mem name used || SSet.mem name out_unset_names then None
    else
      Some
        (Diag.make ~sub:sub.Ast.sub_name Diag.FLOW_UNUSED
           (Printf.sprintf "%s '%s' is never referenced" kind name))
  in
  List.filter_map
    (fun (p : Ast.param) -> check_name "parameter" p.Ast.par_name)
    sub.Ast.sub_params
  @ List.filter_map
      (fun (v : Ast.var_decl) -> check_name "local" v.Ast.v_name)
      sub.Ast.sub_locals

(* ------------------------------------------------------------------ *)
(* Stable While conditions                                             *)
(* ------------------------------------------------------------------ *)

let stable_conditions program (sub : Ast.subprogram) =
  let opo = out_positions program in
  let diags = ref [] in
  Ast.iter_stmts
    (fun stmt ->
      match stmt with
      | Ast.While wl ->
          let cond_vars = vars_of wl.Ast.while_cond in
          let written =
            SSet.of_list (Ast.written_vars ~out_params_of:opo wl.Ast.while_body)
          in
          if SSet.is_empty (SSet.inter cond_vars written) then
            diags :=
              Diag.make ~sub:sub.Ast.sub_name
                ~line:(Diag.anchor program ~sub:sub.Ast.sub_name stmt)
                Diag.FLOW_STABLE_COND
                (Printf.sprintf
                   "while condition '%s' is stable: the loop body writes none \
                    of its variables"
                   (Pretty.expr_to_string wl.Ast.while_cond))
              :: !diags
      | _ -> ())
    sub.Ast.sub_body;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Unused program-level declarations                                   *)
(* ------------------------------------------------------------------ *)

(* A constant or global variable in no subprogram's declaration frontier.
   {!Depgraph.decl_refs} is transitively closed, so a constant kept alive
   only through another live declaration is not flagged. *)
let unused_globals program =
  let g = Depgraph.build program in
  let used =
    List.fold_left
      (fun acc s -> SSet.union acc (SSet.of_list (Depgraph.decl_refs g s)))
      SSet.empty (Depgraph.subs g)
  in
  let flag kind name =
    if SSet.mem name used then None
    else
      Some
        (Diag.make Diag.FLOW_UNUSED_GLOBAL
           (Printf.sprintf "%s '%s' is referenced by no subprogram" kind name))
  in
  List.filter_map (fun (c : Ast.const_decl) -> flag "constant" c.Ast.k_name)
    (Ast.constants program)
  @ List.filter_map
      (fun (v : Ast.var_decl) -> flag "global variable" v.Ast.v_name)
      (Ast.global_vars program)

(* ------------------------------------------------------------------ *)

let check_subprogram program (sub : Ast.subprogram) =
  let unset = out_unset program sub in
  (* names already reported as OUT_UNSET: suppress the redundant
     FLOW_UNUSED for the same parameter *)
  let unset_names =
    let written =
      SSet.of_list
        (Ast.written_vars ~out_params_of:(out_positions program)
           sub.Ast.sub_body)
    in
    SSet.of_list
      (List.filter_map
         (fun (p : Ast.param) ->
           if p.Ast.par_mode = Ast.Mode_out && not (SSet.mem p.Ast.par_name written)
           then Some p.Ast.par_name
           else None)
         sub.Ast.sub_params)
  in
  init_and_reachability program sub
  @ unset
  @ ineffective program sub
  @ unused program sub ~out_unset_names:unset_names
  @ stable_conditions program sub

let check program =
  unused_globals program
  @ List.concat_map (check_subprogram program) (Ast.subprograms program)
