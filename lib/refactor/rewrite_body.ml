(* User-specified transformations (§5.2): "the user can specify and prove a
   new semantics-preserving transformation using the proof template we
   provide and add it to the library".

   [replace_body] is that proof template, mechanised: the user supplies a
   new body (and locals) for one subprogram; the applicability check *is*
   the equivalence check — {!Equivalence.oracle}, exhaustive over small
   input domains and seeded sampling otherwise — between the old and new
   versions of the subprogram, in isolation.

   [add_subprograms] introduces fresh, unused definitions (semantically a
   no-op); it is how specification-shaped helpers (sub_bytes, rot_word,
   key_expansion, ...) enter the program before a [replace_body] makes the
   optimized code call them. *)

open Minispark

let add_subprograms ~defs ~anchor =
  Transform.make
    ~name:
      (Printf.sprintf "add_subprograms(%s)"
         (String.concat "," (List.map (fun (s : Ast.subprogram) -> s.Ast.sub_name) defs)))
    ~category:Transform.Reverse_inlining
    ~describe:"introduce helper subprogram definitions (no call sites yet)"
    (fun _env program ->
      List.fold_left
        (fun program (def : Ast.subprogram) ->
          if Ast.find_sub program def.Ast.sub_name <> None then
            Transform.reject "subprogram %s already exists" def.Ast.sub_name;
          Ast.insert_decl_before program ~anchor (Ast.Dsub def))
        program defs)

let add_decls ~decls ~anchor =
  Transform.make ~name:"add_decls" ~category:Transform.Modify_storage
    ~describe:"introduce type/constant declarations"
    (fun _env program ->
      List.fold_left
        (fun program decl -> Ast.insert_decl_before program ~anchor decl)
        program decls)

(* trials for a replaced body's oracle check; seed and fuel are
   certification's *)
let oracle_trials = 48

(** [replace_body ~proc ~locals ~body]: swap in a new body for [proc];
    applicability = the old and new versions of [proc] agree under
    {!Equivalence.oracle} (exhaustively when the input domain enumerates,
    otherwise on [oracle_trials] seeded samples). *)
let replace_body ~proc ?new_locals ~body () =
  Transform.make_claiming
    ~name:(Printf.sprintf "replace_body(%s)" proc)
    ~category:Transform.Modify_computation
    ~describe:
      (Printf.sprintf
         "rewrite the body of %s (equivalence checked on the subprogram in isolation)"
         proc)
    (fun env program ->
      let sub = Ast.find_sub_exn program proc in
      let sub' =
        {
          sub with
          Ast.sub_body = body;
          Ast.sub_locals = Option.value ~default:sub.Ast.sub_locals new_locals;
        }
      in
      let program' = Ast.replace_sub program sub' in
      (* the rewritten program must type-check before we can interpret it *)
      let after =
        match Typecheck.check program' with
        | result -> result
        | exception Typecheck.Type_error msg ->
            Transform.reject "new body of %s does not type-check: %s" proc msg
      in
      let cfg = Certify.default_config () in
      match
        Equivalence.oracle ~seed:cfg.Certify.cf_seed ~trials:oracle_trials
          ~fuel:cfg.Certify.cf_fuel (env, program) after proc
      with
      | Equivalence.Agree { trials; exhaustive } ->
          (* the verdict, bound to the two programs it was reached on *)
          ( snd after,
            Some
              (Transform.Oracle_agreement
                 { target = proc; trials; exhaustive; fuel = cfg.Certify.cf_fuel;
                   before_digest = Share.decls_digest program;
                   after_digest = Share.decls_digest (snd after) }) )
      | Equivalence.Refuted cx ->
          Transform.reject "new body of %s is not equivalent: %s" proc
            (Equivalence.counterexample_to_string cx)
      | Equivalence.Undecided why ->
          Transform.reject "new body of %s is not shown equivalent: %s" proc why)
