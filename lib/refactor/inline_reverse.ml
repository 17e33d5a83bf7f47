(* Reversing inlined functions or cloned code (§5.1): cloned fragments are
   replaced by calls to a definition provided by the user (or derived from
   the code).  Two granularities:

   - [extract_function]: an *expression* template with metavariables; every
     matching subexpression is replaced by a call to a new function whose
     body is the template.

   - [extract_procedure]: a *statement-list* template; every matching slice
     of consecutive statements is replaced by a procedure call.

   Applicability: at least [min_occurrences] replacements must happen, the
   synthesised subprogram must be well-formed (checked by the framework's
   re-typecheck), and for procedures the template's dataflow must justify
   the chosen parameter modes. *)

open Minispark

(* the expression an occurrence binds to parameter [p]; a template that
   never mentions [p] binds nothing *)
let bound subst p =
  match List.assoc_opt p subst with
  | Some v -> v
  | None -> Transform.reject "the template does not bind parameter %s" p

let sub_mentions (sub : Ast.subprogram) name =
  let found = ref false in
  Ast.iter_stmts
    (fun s ->
      Ast.iter_own_exprs
        (fun e ->
          Ast.iter_expr
            (function Ast.Call (f, _) when String.equal f name -> found := true | _ -> ())
            e)
        s;
      match s with
      | Ast.Call_stmt (f, _) when String.equal f name -> found := true
      | _ -> ())
    sub.Ast.sub_body;
  !found

let insert_before_first_user program def name =
  let anchor =
    List.find_map
      (function
        | Ast.Dsub s when sub_mentions s name -> Some s.Ast.sub_name
        | _ -> None)
      program.Ast.prog_decls
  in
  match anchor with
  | Some anchor -> Ast.insert_decl_before program ~anchor def
  | None -> Transform.reject "no occurrences of %s found after rewriting" name

(** [extract_function ~name ~params ~ret ~body] introduces
    [function name (params) return ret is begin return body; end] and
    replaces every occurrence of [body] (with the parameter names as
    metavariables) by a call. *)
let extract_function ~name ~params ~ret ~body ?(min_occurrences = 1) () =
  Transform.make
    ~name:(Printf.sprintf "extract_function(%s)" name)
    ~category:Transform.Reverse_inlining
    ~describe:(Printf.sprintf "replace clones of an expression with calls to %s" name)
    (fun _env program ->
      if Ast.find_sub program name <> None then
        Transform.reject "a subprogram named %s already exists" name;
      let metas = List.map (fun (p : Ast.param) -> p.Ast.par_name) params in
      let occurrences = ref 0 in
      let rw =
        Ast.map_expr (fun e ->
            match Transform.match_expr ~metas body e [] with
            | Some subst ->
                incr occurrences;
                Ast.Call (name, List.map (bound subst) metas)
            | None -> e)
      in
      let decls =
        Ast.map_sharing
          (fun d ->
            match d with
            | Ast.Dsub s ->
                let body0 = s.Ast.sub_body in
                let body' =
                  Ast.map_stmts (fun st -> [ Ast.map_own_exprs rw st ]) body0
                in
                if body' == body0 then d
                else Ast.Dsub { s with Ast.sub_body = body' }
            | d -> d)
          program.Ast.prog_decls
      in
      let program =
        if decls == program.Ast.prog_decls then program
        else { program with Ast.prog_decls = decls }
      in
      if !occurrences < min_occurrences then
        Transform.reject "only %d occurrence(s) of the %s template found" !occurrences
          name;
      let def =
        Ast.Dsub
          {
            Ast.sub_name = name;
            sub_params = params;
            sub_return = Some ret;
            sub_pre = None;
            sub_post = None;
            sub_locals = [];
            sub_body = [ Ast.Return (Some body) ];
          }
      in
      insert_before_first_user program def name)

(** [extract_procedure ~name ~params ~template] introduces a procedure
    whose body is [template] (metavariables = parameter names; writable
    parameters must match plain variables) and replaces every matching
    slice of consecutive statements with a call.  Parameter modes are
    validated against the template's dataflow. *)
let extract_procedure ~name ~params ~(template : Ast.stmt list) ?(min_occurrences = 1)
    ?(locals = []) () =
  Transform.make_claiming
    ~name:(Printf.sprintf "extract_procedure(%s)" name)
    ~category:Transform.Reverse_inlining
    ~describe:(Printf.sprintf "replace cloned statement blocks with calls to %s" name)
    (fun env program ->
      if Ast.find_sub program name <> None then
        Transform.reject "a subprogram named %s already exists" name;
      let metas = List.map (fun (p : Ast.param) -> p.Ast.par_name) params in
      Ast.iter_stmts
        (function
          | Ast.Return _ -> Transform.reject "the template contains a return statement"
          | _ -> ())
        template;
      let written = Transform.written_vars program template in
      List.iter
        (fun (p : Ast.param) ->
          let w = List.mem p.Ast.par_name written in
          match p.Ast.par_mode with
          | Ast.Mode_in ->
              if w then
                Transform.reject "parameter %s is written by the template but mode in"
                  p.Ast.par_name
          | Ast.Mode_out | Ast.Mode_in_out ->
              if not w then
                Transform.reject "parameter %s has out mode but is never written"
                  p.Ast.par_name)
        params;
      let tlen = List.length template in
      if tlen = 0 then Transform.reject "empty template";
      let count = ref 0 in
      let rec rewrite_body body =
        let arr = Array.of_list body in
        let n = Array.length arr in
        let out = ref [] in
        let i = ref 0 in
        let changed = ref false in
        while !i < n do
          let matched =
            if !i + tlen <= n then
              Transform.match_stmts ~metas template
                (Array.to_list (Array.sub arr !i tlen))
                []
            else None
          in
          (match matched with
          | Some subst ->
              let args =
                List.map
                  (fun (p : Ast.param) ->
                    let v = bound subst p.Ast.par_name in
                    (match (p.Ast.par_mode, v) with
                    | (Ast.Mode_out | Ast.Mode_in_out), Ast.Var _ -> ()
                    | (Ast.Mode_out | Ast.Mode_in_out), _ ->
                        Transform.reject
                          "occurrence binds writable parameter %s to a non-variable"
                          p.Ast.par_name
                    | Ast.Mode_in, _ -> ());
                    v)
                  params
              in
              incr count;
              changed := true;
              out := Ast.Call_stmt (name, args) :: !out;
              i := !i + tlen
          | None ->
              let s0 = arr.(!i) in
              let s =
                match s0 with
                | Ast.If (branches, els) ->
                    let branches' =
                      Ast.map_sharing
                        (fun (g, b) ->
                          let b' = rewrite_body b in
                          if b' == b then (g, b) else (g, b'))
                        branches
                    in
                    let els' = rewrite_body els in
                    if branches' == branches && els' == els then s0
                    else Ast.If (branches', els')
                | Ast.For fl ->
                    let b' = rewrite_body fl.Ast.for_body in
                    if b' == fl.Ast.for_body then s0
                    else Ast.For { fl with Ast.for_body = b' }
                | Ast.While wl ->
                    let b' = rewrite_body wl.Ast.while_body in
                    if b' == wl.Ast.while_body then s0
                    else Ast.While { wl with Ast.while_body = b' }
                | s -> s
              in
              if s != s0 then changed := true;
              out := s :: !out;
              incr i);
          ()
        done;
        if !changed then List.rev !out else body
      in
      let decls =
        Ast.map_sharing
          (fun d ->
            match d with
            | Ast.Dsub s ->
                let body0 = s.Ast.sub_body in
                let body' = rewrite_body body0 in
                if body' == body0 then d
                else Ast.Dsub { s with Ast.sub_body = body' }
            | d -> d)
          program.Ast.prog_decls
      in
      if !count < min_occurrences then
        Transform.reject "only %d occurrence(s) of the %s template found" !count name;
      (* a call starts an out parameter at its type's default *)
      (match Extraction.out_params_written env program params template with
      | Ok () -> ()
      | Error why -> Transform.reject "%s" why);
      let def =
        Ast.Dsub
          {
            Ast.sub_name = name;
            sub_params = params;
            sub_return = None;
            sub_pre = None;
            sub_post = None;
            sub_locals = locals;
            sub_body = template;
          }
      in
      let program = { program with Ast.prog_decls = decls } in
      ( insert_before_first_user program def name,
        Some (Transform.Extraction { callee = name }) ))

(* ------------------------------------------------------------------ *)
(* Clone detection (§5.1: "identifying cloned code fragments")         *)
(* ------------------------------------------------------------------ *)

(* canonical form of a statement window: variable names replaced by their
   order of first occurrence, so [t1 := a * 2; r := t1] and
   [t2 := b * 2; s := t2] canonicalise identically *)
let canonical_window (stmts : Ast.stmt list) : Ast.stmt list =
  let table = Hashtbl.create 8 in
  let canon x =
    match Hashtbl.find_opt table x with
    | Some c -> c
    | None ->
        let c = Printf.sprintf "v%d" (Hashtbl.length table) in
        Hashtbl.add table x c;
        c
  in
  let rn_expr =
    Ast.map_expr (function
      | Ast.Var x -> Ast.Var (canon x)
      | Ast.Old x -> Ast.Old (canon x)
      | e -> e)
  in
  let rec rn_lv = function
    | Ast.Lvar x -> Ast.Lvar (canon x)
    | Ast.Lindex (lv, i) -> Ast.Lindex (rn_lv lv, rn_expr i)
  in
  Ast.map_stmts
    (fun s ->
      let s = match s with Ast.Assign (lv, e) -> Ast.Assign (rn_lv lv, e) | s -> s in
      [ Ast.map_own_exprs rn_expr s ])
    stmts

type clone = {
  cl_len : int;                        (** statements per occurrence *)
  cl_occurrences : (string * int) list;  (** subprogram, start index *)
}

(** Find repeated statement windows across the program: candidates for
    [extract_procedure].  Windows of [min_len] to [max_len] top-level
    statements; only maximal, non-overlapping clone families with at least
    two occurrences are reported, largest first. *)
let suggest_clones ?(min_len = 2) ?(max_len = 6) (program : Ast.program) : clone list =
  let families = Hashtbl.create 64 in
  List.iter
    (fun (sub : Ast.subprogram) ->
      let body = Array.of_list sub.Ast.sub_body in
      let n = Array.length body in
      for len = min_len to max_len do
        for from = 0 to n - len do
          let window = Array.to_list (Array.sub body from len) in
          (* statement windows containing loops/conditionals rarely extract
             cleanly with positional metas; keep them anyway — the check is
             on the caller *)
          let key = (len, canonical_window window) in
          let occs = Option.value ~default:[] (Hashtbl.find_opt families key) in
          Hashtbl.replace families key ((sub.Ast.sub_name, from) :: occs)
        done
      done)
    (Ast.subprograms program);
  let candidates =
    Hashtbl.fold
      (fun (len, _) occs acc ->
        if List.length occs >= 2 then
          { cl_len = len; cl_occurrences = List.rev occs } :: acc
        else acc)
      families []
    |> List.sort (fun a b ->
           compare
             (b.cl_len * List.length b.cl_occurrences)
             (a.cl_len * List.length a.cl_occurrences))
  in
  (* drop families fully shadowed by a larger, already-kept family *)
  let covered : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let fresh =
        List.exists
          (fun (sub, from) ->
            not
              (List.exists
                 (fun k -> Hashtbl.mem covered (sub, from + k))
                 (List.init c.cl_len (fun k -> k))))
          c.cl_occurrences
      in
      if fresh then
        List.iter
          (fun (sub, from) ->
            List.iter (fun k -> Hashtbl.replace covered (sub, from + k) ()) 
              (List.init c.cl_len (fun k -> k)))
          c.cl_occurrences;
      fresh)
    candidates

let pp_clone ppf c =
  Fmt.pf ppf "%d statements x %d occurrences: %a" c.cl_len
    (List.length c.cl_occurrences)
    Fmt.(list ~sep:(any ", ") (fun ppf (s, f) -> Fmt.pf ppf "%s@%d" s f))
    c.cl_occurrences
