(* Cross-layer property tests: random programs are pushed through the
   refactoring, VC, and extraction machinery, checking the invariants the
   whole system rests on:

   - applicable transformations preserve interpreter semantics;
   - the VC pipeline is sound for straight-line programs (if all VCs prove,
     differential testing finds no counterexample against the annotations);
   - extraction agrees with interpretation. *)

open Minispark

(* ------------------------------------------------------------------ *)
(* generator: random straight-line byte programs over a fixed frame    *)
(* ------------------------------------------------------------------ *)

(* subprogram frame: procedure f (a : in byte; b : in byte; r : out byte),
   locals x y : byte; statements assign x/y/r from byte expressions *)

let gen_body =
  let open QCheck.Gen in
  let targets = [ "x"; "y"; "r" ] in
  let stmt =
    map2
      (fun t e -> Ast.Assign (Ast.Lvar t, e))
      (oneofl targets)
      (Randprog.gen_expr_over [ "a"; "b"; "x"; "y" ])
  in
  list_size (int_range 2 8) stmt

let program_of_body body =
  {
    Ast.prog_name = "randprog";
    prog_decls =
      [ Ast.Dtype ("byte", Ast.Tmod 256);
        Ast.Dsub
          {
            Ast.sub_name = "f";
            sub_params =
              [ { Ast.par_name = "a"; par_mode = Ast.Mode_in; par_typ = Ast.Tnamed "byte" };
                { Ast.par_name = "b"; par_mode = Ast.Mode_in; par_typ = Ast.Tnamed "byte" };
                { Ast.par_name = "r"; par_mode = Ast.Mode_out; par_typ = Ast.Tnamed "byte" } ];
            sub_return = None;
            sub_pre = None;
            sub_post = None;
            sub_locals =
              [ { Ast.v_name = "x"; v_typ = Ast.Tnamed "byte"; v_init = Some (Ast.Int_lit 0) };
                { Ast.v_name = "y"; v_typ = Ast.Tnamed "byte"; v_init = Some (Ast.Int_lit 0) } ];
            sub_body = body;
          } ];
  }

let arbitrary_program = Randprog.arbitrary ~program_of_body gen_body
let run_f = Randprog.run_f

(* ------------------------------------------------------------------ *)
(* property 1: introduce_temp + inline_temp round-trips semantics      *)
(* ------------------------------------------------------------------ *)

let prop_temp_roundtrip =
  QCheck.Test.make ~name:"introduce_temp preserves semantics" ~count:60
    arbitrary_program (fun body ->
      let env, prog = Typecheck.check (program_of_body body) in
      (* name the first assignment's right-hand side *)
      match body with
      | Ast.Assign (_, e) :: _ -> (
          let tr =
            Refactor.Storage_adjust.introduce_temp ~proc:"f" ~at:0 ~name:"fresh_t"
              ~typ:(Ast.Tnamed "byte") ~expr:e
          in
          match Refactor.Transform.apply tr env prog with
          | exception Refactor.Transform.Not_applicable _ -> QCheck.assume_fail ()
          | env', prog', _ ->
              List.for_all
                (fun (a, b) -> run_f env prog a b = run_f env' prog' a b)
                [ (0, 0); (1, 2); (255, 255); (17, 203); (128, 64) ])
      | _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* property 2: the differential equivalence checker accepts identity   *)
(* and rejects a mutation that changes behaviour                       *)
(* ------------------------------------------------------------------ *)

let oracle_agrees before after =
  match
    Refactor.Equivalence.oracle ~seed:42 ~trials:64 ~fuel:Interp.default_fuel before
      after "f"
  with
  | Refactor.Equivalence.Agree _ -> true
  | Refactor.Equivalence.Refuted _ | Refactor.Equivalence.Undecided _ -> false

let prop_equivalence_identity =
  QCheck.Test.make ~name:"equivalence checker accepts identical programs" ~count:40
    arbitrary_program (fun body ->
      let checked = Typecheck.check (program_of_body body) in
      oracle_agrees checked checked)

let prop_equivalence_rejects_mutation =
  QCheck.Test.make ~name:"equivalence checker rejects behavioural change" ~count:40
    arbitrary_program (fun body ->
      let env, prog = Typecheck.check (program_of_body body) in
      (* mutate: force r := r xor 1 at the end *)
      let mutated =
        Ast.update_sub prog "f" (fun sub ->
            { sub with
              Ast.sub_body =
                sub.Ast.sub_body
                @ [ Ast.Assign
                      (Ast.Lvar "r", Ast.Binop (Ast.Bxor, Ast.Var "r", Ast.Int_lit 1)) ] })
      in
      not (oracle_agrees (env, prog) (Typecheck.check mutated)))

(* ------------------------------------------------------------------ *)
(* property 3: extraction agrees with interpretation                   *)
(* ------------------------------------------------------------------ *)

let prop_extraction_agrees =
  QCheck.Test.make ~name:"extracted spec = interpreted program" ~count:300
    arbitrary_program (fun body ->
      let env, prog = Typecheck.check (program_of_body body) in
      match Extract.extract_program env prog with
      | exception Extract.Unextractable _ -> QCheck.assume_fail ()
      | th ->
          let senv = Specl.Seval.make th in
          List.for_all
            (fun (a, b) ->
              let via_interp = run_f env prog a b in
              let via_spec =
                Specl.Seval.as_int
                  (Specl.Seval.apply senv "f" [ Specl.Seval.Vint a; Specl.Seval.Vint b ])
              in
              via_interp = via_spec)
            [ (0, 0); (3, 5); (255, 1); (77, 200) ])

(* ------------------------------------------------------------------ *)
(* property 4: VC soundness on annotated straight-line programs        *)
(* ------------------------------------------------------------------ *)

(* annotate f with the exact symbolic result of its own execution on a
   randomly chosen postcondition shape: r compared against a constant; if
   all VCs prove, the interpreter must agree on all sampled inputs *)
let prop_vc_soundness =
  QCheck.Test.make ~name:"proved VCs are never falsified by execution" ~count:40
    arbitrary_program (fun body ->
      let _env, prog = Typecheck.check (program_of_body body) in
      (* postcondition: r <= 255 and r >= 0 (always true but nontrivial
         through wraps); prover must not be fooled, executions must agree *)
      let prog =
        Ast.update_sub prog "f" (fun sub ->
            { sub with
              Ast.sub_post =
                Some (Parser.expr_of_string "r >= 0 and r <= 255") })
      in
      let env, prog = Typecheck.check prog in
      ignore env;
      let env, prog = Typecheck.check prog in
      let report = Vcgen.generate env prog in
      let results =
        List.map (fun vc -> Logic.Prover.prove_vc vc) (Vcgen.all_vcs report)
      in
      if List.for_all Logic.Prover.is_proved results then
        List.for_all
          (fun (a, b) ->
            let r = run_f env prog a b in
            r >= 0 && r <= 255)
          [ (0, 0); (255, 254); (13, 57) ]
      else QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)
(* property 5: the compiled interpreter agrees with the tree-walker    *)
(* ------------------------------------------------------------------ *)

(* What a run shows from outside: the values, or the Stuck / runtime
   error message, or fuel exhaustion — and the fuel left afterwards. *)
module type INTERP = sig
  type rt

  exception Stuck of string
  exception Out_of_fuel

  val make : ?fuel:int -> Typecheck.env -> Ast.program -> rt
  val fuel_left : rt -> int
  val run_procedure : rt -> string -> Value.t list -> Value.t list
end

module Observe (I : INTERP) = struct
  let outcome f =
    match f () with
    | vs -> Ok vs
    | exception I.Stuck m -> Error ("stuck: " ^ m)
    | exception I.Out_of_fuel -> Error "out of fuel"
    | exception Value.Runtime_error m -> Error ("runtime error: " ^ m)

  (* each call on a fresh runtime of [prog]; runtimes share the
     interpreter's per-domain caches, as they do in the oracle *)
  let runs ?fuel env prog calls =
    List.map
      (fun (name, args) ->
        match I.make ?fuel env prog with
        | exception I.Out_of_fuel -> (Error "out of fuel at initialisation", 0)
        | rt ->
            let o = outcome (fun () -> I.run_procedure rt name args) in
            (o, I.fuel_left rt))
      calls
end

module Compiled = Observe (Interp)
module Reference = Observe (Interp_ref)

(* both interpreters over the same calls, in a fresh domain so that
   neither starts with warm per-domain caches *)
let agree ?fuel env prog calls =
  Domain.join
    (Domain.spawn (fun () ->
         Compiled.runs ?fuel env prog calls = Reference.runs ?fuel env prog calls))

let prop_interp_identity =
  QCheck.Test.make ~name:"compiled interpreter = tree-walking reference" ~count:100
    arbitrary_program (fun body ->
      let env, prog = Typecheck.check (program_of_body body) in
      let calls =
        List.map
          (fun (a, b) -> ("f", [ Value.Vint a; Value.Vint b ]))
          [ (0, 0); (1, 2); (255, 255); (17, 203); (128, 64) ]
      in
      (* the small budgets run out part-way through the body *)
      List.for_all (fun fuel -> agree ?fuel env prog calls) [ None; Some 3; Some 6 ])

(* every program of the AES refactoring history, in order, and calls on
   the FIPS-197 vectors in both directions *)
let aes_history () =
  let _, h = Lazy.force Test_aes_pipeline.pipeline in
  let programs =
    List.map
      (fun (st : Refactor.History.step) ->
        (st.Refactor.History.st_env_before, st.Refactor.History.st_before))
      (List.rev (Refactor.History.steps h))
    @ [ Refactor.History.current h ]
  in
  let bytes ~width b =
    Value.Varray
      (0, Array.init width (fun i -> Value.Vint (if i < Array.length b then b.(i) else 0)))
  in
  let calls =
    List.concat_map
      (fun (v : Aes.Aes_kat.vector) ->
        let key = bytes ~width:32 (Aes.Aes_kat.key_bytes v)
        and nk = Value.Vint (Aes.Aes_reference.nk_of v.Aes.Aes_kat.size) in
        [ ("encrypt_block", [ key; nk; bytes ~width:16 (Aes.Aes_kat.plaintext_bytes v) ]);
          ("decrypt_block", [ key; nk; bytes ~width:16 (Aes.Aes_kat.ciphertext_bytes v) ]) ])
      Aes.Aes_kat.vectors
  in
  Alcotest.(check bool) "a history of ~60 programs" true (List.length programs > 45);
  (programs, calls)

let test_interp_identity_aes () =
  let programs, calls = aes_history () in
  List.iteri
    (fun k (env, prog) ->
      Alcotest.(check bool) (Printf.sprintf "program %d: same outcomes and fuel" k) true
        (agree env prog calls))
    programs

(* the whole history in one domain, as a refactoring script runs it, and
   then the final version with [xtime], a callee of the memoized
   [gf_mul], edited: a const-function result computed on one version
   serves the later ones whose function behaves the same, so outcomes
   equal the reference's and fuel left is at least its *)
let test_interp_history_one_domain () =
  let programs, calls = aes_history () in
  let _, final = List.nth programs (List.length programs - 1) in
  let mutant =
    Typecheck.check
      (Defects.Seed.mutate_expr_sites ~sub_name:"xtime"
         ~site:(fun e -> e = Ast.Int_lit 27)
         ~rewrite:(fun _ -> Ast.Int_lit 29)
         ~nth:0 final)
  in
  let runs =
    Domain.join
      (Domain.spawn (fun () ->
           List.mapi
             (fun k (env, prog) ->
               let compiled = Compiled.runs env prog calls
               and reference = Reference.runs env prog calls in
               let outcomes = List.map fst compiled in
               Alcotest.(check bool) (Printf.sprintf "version %d: same outcomes" k) true
                 (outcomes = List.map fst reference);
               List.iter2
                 (fun (_, fc) (_, fr) ->
                   if fc < fr then
                     Alcotest.failf "version %d: %d fuel left, the reference %d" k fc fr)
                 compiled reference;
               (outcomes, List.exists2 (fun (_, fc) (_, fr) -> fc > fr) compiled reference))
             (programs @ [ mutant ])))
  in
  Alcotest.(check bool) "a later version skips work an earlier one did" true
    (List.exists snd (List.tl runs));
  match List.rev runs with
  | (edited, _) :: (unedited, _) :: _ ->
      Alcotest.(check bool) "the edited xtime changes the outcomes" true (edited <> unedited)
  | _ -> assert false

let suites =
  [ ( "properties",
      [ QCheck_alcotest.to_alcotest prop_temp_roundtrip;
        QCheck_alcotest.to_alcotest prop_equivalence_identity;
        QCheck_alcotest.to_alcotest prop_equivalence_rejects_mutation;
        QCheck_alcotest.to_alcotest prop_extraction_agrees;
        QCheck_alcotest.to_alcotest prop_vc_soundness;
        QCheck_alcotest.to_alcotest prop_interp_identity;
        Alcotest.test_case "compiled interpreter = reference on the AES history" `Slow
          test_interp_identity_aes;
        Alcotest.test_case "compiled interpreter = reference on the AES history in one domain"
          `Slow test_interp_history_one_domain ] ) ]
