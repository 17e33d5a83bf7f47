(* Splitting procedures (§5.1): long procedures produce verbose VCs; a
   consecutive slice of statements is moved into a fresh sub-procedure and
   replaced by a call.  Parameter modes are derived mechanically from the
   slice's dataflow against the enclosing subprogram's visible objects.
   The step claims the extraction ({!Transform.Extraction}). *)

open Minispark

(** [split ~proc ~from ~len ~new_name] extracts statements
    [from .. from+len-1] of [proc] into procedure [new_name]. *)
let split ~proc ~from ~len ~new_name =
  Transform.make_claiming
    ~name:(Printf.sprintf "split(%s@%d+%d -> %s)" proc from len new_name)
    ~category:Transform.Split_procedures
    ~describe:
      (Printf.sprintf "move %d statements of %s into sub-procedure %s" len proc new_name)
    (fun env program ->
      if Ast.find_sub program new_name <> None then
        Transform.reject "a subprogram named %s already exists" new_name;
      let sub = Ast.find_sub_exn program proc in
      let body = sub.Ast.sub_body in
      let slice = Transform.slice body ~from ~len in
      (* no control-flow escape from the slice *)
      Ast.iter_stmts
        (function
          | Ast.Return _ -> Transform.reject "slice contains a return statement"
          | _ -> ())
        slice;
      let written = Transform.written_vars program slice in
      let read = Transform.read_vars slice in
      (* classify each visible object used by the slice *)
      let visible =
        List.map (fun (p : Ast.param) -> (p.Ast.par_name, p.Ast.par_typ)) sub.Ast.sub_params
        @ List.map (fun (v : Ast.var_decl) -> (v.Ast.v_name, v.Ast.v_typ)) sub.Ast.sub_locals
      in
      (* loop variables of loops *containing* the slice are not visible;
         slices are top-level statements so only params/locals matter.
         Constants and globals stay implicitly visible. *)
      let used = List.sort_uniq String.compare (written @ read) in
      let params =
        List.filter_map
          (fun name ->
            match List.assoc_opt name visible with
            | None -> None (* global or constant: still in scope *)
            | Some typ ->
                let w = List.mem name written in
                let r = List.mem name read in
                let mode =
                  if w && r then Ast.Mode_in_out
                  else if w then Ast.Mode_out
                  else Ast.Mode_in
                in
                Some { Ast.par_name = name; par_mode = mode; par_typ = typ })
          used
      in
      (* out-mode underestimation: a variable whose array cell is written is
         also read (read-modify-write) — force in-out for array-typed outs *)
      let params =
        List.map
          (fun (p : Ast.param) ->
            match (p.Ast.par_mode, Typecheck.resolve env p.Ast.par_typ) with
            | Ast.Mode_out, Ast.Tarray _ -> { p with Ast.par_mode = Ast.Mode_in_out }
            | _ -> p)
          params
      in
      (* a call starts an out parameter at its type's default: a scalar
         the slice does not write on every path keeps its value in out *)
      let params =
        List.map
          (fun (p : Ast.param) ->
            match
              (p.Ast.par_mode, Extraction.out_params_written env program [ p ] slice)
            with
            | Ast.Mode_out, Error _ -> { p with Ast.par_mode = Ast.Mode_in_out }
            | _ -> p)
          params
      in
      let call =
        Ast.Call_stmt (new_name, List.map (fun (p : Ast.param) -> Ast.Var p.Ast.par_name) params)
      in
      let def =
        Ast.Dsub
          {
            Ast.sub_name = new_name;
            sub_params = params;
            sub_return = None;
            sub_pre = None;
            sub_post = None;
            sub_locals = [];
            sub_body = slice;
          }
      in
      let body' = Transform.splice body ~from ~len [ call ] in
      let program = Ast.replace_sub program { sub with Ast.sub_body = body' } in
      ( Ast.insert_decl_before program ~anchor:proc def,
        Some (Transform.Extraction { callee = new_name }) ))
