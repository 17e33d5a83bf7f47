(* Tests for the defect-seeding machinery (§7.1): determinism, coverage of
   the five basic types, and the behaviour of individual mutations.  The
   full two-setup experiment is exercised by the benchmark harness; here we
   drive single defects through the cheap stages. *)

open Minispark

let prog0 () = snd (Aes.Aes_impl.checked ())

let test_fifteen_defects () =
  let ds = Defects.Seed.seed_all (prog0 ()) in
  Alcotest.(check int) "15 defects" 15 (List.length ds);
  let count t =
    List.length (List.filter (fun d -> d.Defects.Seed.d_type = t) ds)
  in
  Alcotest.(check int) "numeric" 3 (count Defects.Seed.Numeric_value);
  Alcotest.(check int) "index" 3 (count Defects.Seed.Array_index);
  Alcotest.(check int) "operator" 3 (count Defects.Seed.Operator);
  Alcotest.(check int) "reference" 3 (count Defects.Seed.Reference);
  Alcotest.(check int) "statement" 3 (count Defects.Seed.Statement);
  Alcotest.(check int) "exactly one benign" 1
    (List.length (List.filter (fun d -> d.Defects.Seed.d_benign) ds))

let test_seeding_deterministic () =
  let p = prog0 () in
  let d1 = Defects.Seed.seed_all p and d2 = Defects.Seed.seed_all p in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same description" a.Defects.Seed.d_describe
        b.Defects.Seed.d_describe)
    d1 d2

let test_defects_change_program () =
  let p = prog0 () in
  List.iter
    (fun d ->
      let p' = d.Defects.Seed.d_apply p in
      Alcotest.(check bool)
        (Printf.sprintf "defect %d changes the program" d.Defects.Seed.d_id)
        true (p' <> p))
    (Defects.Seed.seed_all p)

let test_defects_typecheck () =
  (* the paper's defects compile; ours must type-check so that every stage
     of the process can run *)
  let p = prog0 () in
  List.iter
    (fun d ->
      match Typecheck.check (d.Defects.Seed.d_apply p) with
      | _ -> ()
      | exception Typecheck.Type_error msg ->
          Alcotest.failf "defect %d does not type-check: %s" d.Defects.Seed.d_id msg)
    (Defects.Seed.seed_all p)

let test_nonbenign_break_kats () =
  (* every non-benign defect changes ciphertexts or crashes (i.e. it is a
     real functional defect, not dead code) *)
  let p = prog0 () in
  List.iter
    (fun d ->
      let env, p' = Typecheck.check (d.Defects.Seed.d_apply p) in
      let pass =
        match Aes.Aes_kat.run_vectors env p' with
        | outcomes -> Aes.Aes_kat.all_pass outcomes
        | exception (Minispark.Interp.Stuck _ | Minispark.Interp.Out_of_fuel) ->
            false (* crash = broken *)
      in
      if d.Defects.Seed.d_benign then
        Alcotest.(check bool) "benign defect preserves KATs" true pass
      else
        Alcotest.(check bool)
          (Printf.sprintf "defect %d breaks a KAT" d.Defects.Seed.d_id)
          false pass)
    (Defects.Seed.seed_all p)

let test_benign_survives_refactoring () =
  let p = prog0 () in
  let benign = List.find (fun d -> d.Defects.Seed.d_benign) (Defects.Seed.seed_all p) in
  let start = Typecheck.check (benign.Defects.Seed.d_apply p) in
  match Aes.Aes_refactoring.run ~kat_gate:false ~start () with
  | _ -> ()
  | exception e ->
      Alcotest.failf "benign defect caught during refactoring: %s" (Printexc.to_string e)

let test_reroll_catches_nonuniform_defect () =
  (* the paper's flagship example: a defect in one iteration of an unrolled
     loop makes rerolling inapplicable.  Mutate a round-key offset inside
     the unrolled encryption rounds and attempt block 1. *)
  let p = prog0 () in
  let sub = Ast.find_sub_exn p "encrypt" in
  ignore sub;
  (* change the round-key offset rk(23) of the third unrolled pair to
     rk(22): the literal column is no longer affine across the groups *)
  let defective =
    Defects.Seed.mutate_expr_sites ~sub_name:"encrypt"
      ~site:(function Ast.Int_lit 23 -> true | _ -> false)
      ~rewrite:(function Ast.Int_lit _ -> Ast.Int_lit 22 | e -> e)
      ~nth:0 p
  in
  let env, defective = Typecheck.check defective in
  match
    Refactor.Transform.apply
      (Refactor.Reroll.reroll ~proc:"encrypt" ~from:4 ~group_len:8 ~count:4 ~var:"r")
      env defective
  with
  | exception Refactor.Transform.Not_applicable _ -> ()
  | _ -> Alcotest.fail "expected rerolling to reject the non-uniform groups"

(* A derived clone template that never mentions one of its parameters
   leaves that parameter unbound at every occurrence: the transformation
   rejects (a catch at refactoring), it does not crash.  Seed 2's #13
   deletes the statement that mentioned it. *)
let test_unbound_template_parameter_rejected () =
  let d =
    List.find
      (fun d -> d.Defects.Seed.d_id = 13)
      (Defects.Seed.seed_all ~seed:2 (prog0 ()))
  in
  Alcotest.(check string) "the defect" "deleted assignment 58 of encrypt"
    d.Defects.Seed.d_describe;
  let r =
    Defects.Experiment.run_one ~baselines:(Defects.Experiment.baselines ())
      Defects.Experiment.Setup2 d
  in
  Alcotest.(check string) "caught at refactoring"
    (Defects.Experiment.stage_name Defects.Experiment.Caught_refactoring)
    (Defects.Experiment.stage_name r.Defects.Experiment.rr_stage);
  Alcotest.(check string) "a rejection" "the template does not bind parameter k3"
    r.Defects.Experiment.rr_note

(* Seed 3's #07 and #08 swap an [and 255] for [or 255] where a byte
   index is wanted: word_to_bytes rejects them by operator, on one line,
   as #01/#02's rejections read, not through the re-typecheck. *)
let test_word_to_bytes_operator_notes () =
  let baselines = Defects.Experiment.baselines () in
  List.iter
    (fun (d : Defects.Seed.defect) ->
      if d.Defects.Seed.d_id = 7 || d.Defects.Seed.d_id = 8 then begin
        let r = Defects.Experiment.run_one ~baselines Defects.Experiment.Setup2 d in
        let note = r.Defects.Experiment.rr_note in
        Alcotest.(check string)
          (Printf.sprintf "#%02d caught at refactoring" d.Defects.Seed.d_id)
          (Defects.Experiment.stage_name Defects.Experiment.Caught_refactoring)
          (Defects.Experiment.stage_name r.Defects.Experiment.rr_stage);
        Alcotest.(check bool) ("an operator rejection: " ^ note) true
          (String.starts_with ~prefix:"operator " note
          && Astring.String.is_infix ~affix:" or 255 applied to converted words" note
          && not (String.contains note '\n'))
      end)
    (Defects.Seed.seed_all ~seed:3 (prog0 ()))

let suites =
  [ ( "defects",
      [ Alcotest.test_case "fifteen defects, three per type" `Quick test_fifteen_defects;
        Alcotest.test_case "seeding deterministic" `Quick test_seeding_deterministic;
        Alcotest.test_case "defects change the program" `Quick test_defects_change_program;
        Alcotest.test_case "defects type-check" `Quick test_defects_typecheck;
        Alcotest.test_case "non-benign defects break KATs" `Quick test_nonbenign_break_kats;
        Alcotest.test_case "benign defect survives refactoring" `Slow
          test_benign_survives_refactoring;
        Alcotest.test_case "rerolling catches non-uniform defects" `Quick
          test_reroll_catches_nonuniform_defect;
        Alcotest.test_case "unbound template parameter is a rejection" `Slow
          test_unbound_template_parameter_rejected;
        Alcotest.test_case "word_to_bytes rejects swapped masks by operator" `Slow
          test_word_to_bytes_operator_notes ] ) ]
