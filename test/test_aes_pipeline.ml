(* Integration tests of the full AES case study: the 14-block refactoring,
   annotation, both Echo proofs, and the per-block metric trajectories.
   The pipeline is run once and shared across the cases. *)

open Minispark

let pipeline = lazy (Aes.Aes_refactoring.run ())

let snapshots () = fst (Lazy.force pipeline)

let annotated =
  lazy
    (let final = List.nth (snapshots ()) 14 in
     let a = Aes.Aes_annotations.annotate final.Aes.Aes_refactoring.sn_program in
     Typecheck.check a)

let test_blocks_complete () =
  let snaps = snapshots () in
  Alcotest.(check int) "15 snapshots (block 0 + 14)" 15 (List.length snaps);
  let _, h = Lazy.force pipeline in
  (* the paper applied 50 transformations; ours is the same order *)
  Alcotest.(check bool) "roughly fifty transformations" true
    (Refactor.History.step_count h >= 45 && Refactor.History.step_count h <= 75)

let test_kats_at_every_block () =
  List.iter
    (fun (s : Aes.Aes_refactoring.snapshot) ->
      Alcotest.(check bool)
        (Printf.sprintf "KATs at block %d" s.Aes.Aes_refactoring.sn_block)
        true
        (Aes.Aes_kat.all_pass
           (Aes.Aes_kat.run_vectors s.Aes.Aes_refactoring.sn_env
              s.Aes.Aes_refactoring.sn_program)))
    (snapshots ())

let test_size_shrinks () =
  let loc block =
    let s = List.nth (snapshots ()) block in
    (Metrics.analyze s.Aes.Aes_refactoring.sn_program).Metrics.element.Metrics.em_lines
  in
  Alcotest.(check bool) "final much smaller than original" true
    (float_of_int (loc 14) < 0.5 *. float_of_int (loc 0))

let test_complexity_declines () =
  let cyclo block =
    let s = List.nth (snapshots ()) block in
    (Metrics.analyze s.Aes.Aes_refactoring.sn_program).Metrics.complexity
      .Metrics.cm_avg_cyclomatic
  in
  Alcotest.(check bool) "cyclomatic declines" true (cyclo 14 < cyclo 0)

let test_subprogram_count () =
  let final = List.nth (snapshots ()) 14 in
  let n = List.length (Ast.subprograms final.Aes.Aes_refactoring.sn_program) in
  (* paper: 25 functions in the final refactored program *)
  Alcotest.(check bool) (Printf.sprintf "around 25 subprograms (%d)" n) true
    (n >= 22 && n <= 32)

let test_match_ratio_trajectory () =
  let ratio block =
    let s = List.nth (snapshots ()) block in
    let sk = Extract.skeleton s.Aes.Aes_refactoring.sn_program in
    (Aes.Aes_implication.match_ratio ~extracted:sk).Specl.Match_ratio.mr_ratio
  in
  let r0 = ratio 0 and r14 = ratio 14 in
  Alcotest.(check bool) (Printf.sprintf "low at block 0 (%.2f)" r0) true (r0 < 0.5);
  Alcotest.(check bool) (Printf.sprintf "high at block 14 (%.2f)" r14) true (r14 > 0.9)

let test_annotated_typechecks () =
  let _, prog = Lazy.force annotated in
  Alcotest.(check bool) "annotated program has posts" true
    (List.exists (fun s -> s.Ast.sub_post <> None) (Ast.subprograms prog))

let test_implementation_proof () =
  let env, prog = Lazy.force annotated in
  let r = Echo.Implementation_proof.run env prog in
  Alcotest.(check (option string)) "feasible" None r.Echo.Implementation_proof.ip_infeasible;
  Alcotest.(check bool)
    (Printf.sprintf "high automation (%.1f%%)"
       (100.0 *. Echo.Implementation_proof.auto_fraction r))
    true
    (Echo.Implementation_proof.auto_fraction r > 0.8);
  Alcotest.(check int) "no residual VCs" 0 r.Echo.Implementation_proof.ip_residual

let test_extraction_and_implication () =
  let env, prog = Lazy.force annotated in
  let extracted = Extract.extract_program env prog in
  let mr = Aes.Aes_implication.match_ratio ~extracted in
  Alcotest.(check bool) "match ratio above 90%" true (mr.Specl.Match_ratio.mr_ratio > 0.9);
  let r = Aes.Aes_implication.run ~extracted in
  Alcotest.(check int) "all lemmas discharged" r.Echo.Implication.im_total
    r.Echo.Implication.im_proved

(* the lemmas as farm jobs: width 2 gives width 1's outcomes, in order *)
let test_implication_jobs () =
  let env, prog = Lazy.force annotated in
  let extracted = Extract.extract_program env prog in
  let outcomes jobs =
    List.map
      (fun ((l : Echo.Implication.lemma), o) -> (l.Echo.Implication.lm_name, o))
      (Echo.Implication.run ~jobs (Aes.Aes_implication.lemmas ~extracted))
        .Echo.Implication.im_lemmas
  in
  let one = outcomes 1 in
  Alcotest.(check int) "29 lemmas" 29 (List.length one);
  Alcotest.(check bool) "jobs=2 outcomes = jobs=1" true (outcomes 2 = one)

let test_extracted_spec_is_executable () =
  let env, prog = Lazy.force annotated in
  let extracted = Extract.extract_program env prog in
  let senv = Specl.Seval.make ~fuel:100_000_000 extracted in
  let v = List.hd Aes.Aes_kat.vectors in
  let arr ~width a =
    Specl.Seval.Varr
      (0, Array.init width (fun i ->
           Specl.Seval.Vint (if i < Array.length a then a.(i) else 0)))
  in
  match
    Specl.Seval.apply senv "encrypt_block"
      [ arr ~width:32 (Aes.Aes_kat.key_bytes v); Specl.Seval.Vint 4;
        arr ~width:16 (Aes.Aes_kat.plaintext_bytes v) ]
  with
  | Specl.Seval.Varr (_, out) ->
      let got =
        String.concat ""
          (Array.to_list
             (Array.map (fun x -> Printf.sprintf "%02x" (Specl.Seval.as_int x)) out))
      in
      Alcotest.(check string) "extracted spec encrypts the KAT" v.Aes.Aes_kat.ciphertext got
  | _ -> Alcotest.fail "non-array result"

let test_packaged_pipeline_verdict () =
  (* the one-call API over the same case study: Orchestrator.run with the
     default config re-runs refactoring + both proofs and must land on
     Verified *)
  let report = Echo.Orchestrator.run Aes.Aes_echo.case_study in
  (match report.Echo.Orchestrator.o_verdict with
  | Echo.Orchestrator.Verified -> ()
  | v -> Alcotest.failf "verdict: %a" Echo.Orchestrator.pp_verdict v);
  Alcotest.(check bool) "history recorded" true
    (report.Echo.Orchestrator.o_refactor_steps >= 45);
  match report.Echo.Orchestrator.o_match with
  | Some m ->
      Alcotest.(check bool) "match ratio carried through" true
        (m.Specl.Match_ratio.mr_ratio > 0.9)
  | None -> Alcotest.fail "no structure match in the report"

(* Refactor-stage attribution: every direct child of the [refactor] stage
   span is one History.apply step (a transform span carrying both
   "category" and "outcome") or the per-block KAT gate, so the category
   seconds plus the gate account for the whole stage; and the category
   step counts add up to the run's step count. *)
let test_refactor_attribution () =
  let module T = Telemetry in
  T.reset ();
  T.enable ();
  let report, events =
    Fun.protect
      ~finally:(fun () ->
        T.disable ();
        T.reset ())
      (fun () ->
        let r = Echo.Orchestrator.run Aes.Aes_echo.case_study in
        (r, T.events ()))
  in
  let spans =
    List.filter_map
      (function
        | T.Span { sp_id; sp_parent; sp_cat; sp_name; sp_attrs; _ } ->
            Some (sp_id, sp_parent, sp_cat, sp_name, sp_attrs)
        | T.Instant _ -> None)
      events
  in
  let stage =
    match
      List.filter (fun (_, _, cat, name, _) -> cat = T.cat_stage && name = "refactor") spans
    with
    | [ (id, _, _, _, _) ] -> id
    | l -> Alcotest.failf "expected one refactor stage span, got %d" (List.length l)
  in
  let children = List.filter (fun (_, parent, _, _, _) -> parent = stage) spans in
  let is_step (_, _, cat, _, attrs) =
    cat = T.cat_transform && List.mem_assoc "category" attrs
    && List.mem_assoc "outcome" attrs
  in
  let is_gate (_, _, cat, name, _) = cat = "gate" && name = "kat-gate" in
  List.iter
    (fun ((_, _, cat, name, _) as c) ->
      if not (is_step c || is_gate c) then
        Alcotest.failf "unattributed child of the refactor stage: %s/%s" cat name)
    children;
  let steps = report.Echo.Orchestrator.o_refactor_steps in
  Alcotest.(check int) "one step span per refactoring step" steps
    (List.length (List.filter is_step children));
  Alcotest.(check bool) "KAT gate spans present" true (List.exists is_gate children);
  Alcotest.(check int) "category step counts sum to the step count" steps
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Profile.refactor_categories events))

(* The simplifier memo on the annotated AES VCs: a second pass over every
   hypothesis and goal is served entirely from the memo (no misses, one
   hit per term), and every memoized result equals the raw fixpoint.  Run
   in a fresh domain, so the memo starts empty whatever ran before. *)
let test_simplify_memo_second_pass () =
  let env, prog = Lazy.force annotated in
  let module S = Logic.Simplify in
  Domain.join
    (Domain.spawn (fun () ->
         let terms =
           List.concat_map
             (fun (vc : Logic.Formula.vc) -> vc.Logic.Formula.vc_goal :: vc.Logic.Formula.vc_hyps)
             (Vcgen.all_vcs (Vcgen.generate env prog))
         in
         let first = List.map S.simplify terms in
         let s1 = S.memo_stats () in
         let second = List.map S.simplify terms in
         let d = Memo.diff (S.memo_stats ()) s1 in
         Alcotest.(check int) "second pass: no misses" 0 d.Memo.misses;
         Alcotest.(check int) "second pass: one hit per term" (List.length terms) d.Memo.hits;
         List.iter2
           (fun t (a, b) ->
             if not (Logic.Formula.equal a b && Logic.Formula.equal a (S.simplify_nomemo t))
             then Alcotest.fail "memoized simplify differs from simplify_nomemo")
           terms (List.combine first second)))

(* Pins the prover's search on the §6.2.3 VCs and on the example
   programs: per VC, in generation order, the status the implementation
   proof gives it ("automatic", "hinted" or "none"), its hints used, its
   attempts (capability levels searched) and its search steps, all from
   the one [prove_vc] with the standard hints that settles it (perfbench's
   [prover.steps] probe is the same call).  Example rows carry the
   program's file stem.  A change that only makes the prover faster must
   leave every line as it is. *)
let test_prover_pins () =
  let module P = Logic.Prover in
  let rows prefix (env, prog) =
    let cfg =
      { P.default_config with
        P.interp = Some (Echo.Implementation_proof.interp_of env prog);
        max_steps = Echo.Orchestrator.default_config.Echo.Orchestrator.oc_max_steps }
    in
    List.map
      (fun (vc : Logic.Formula.vc) ->
        let r = P.prove_vc ~cfg ~hints:P.standard_hints vc in
        let status =
          match r.P.pr_outcome with
          | P.Proved when r.P.pr_hints_used = 0 -> "automatic"
          | P.Proved -> "hinted"
          | P.Unknown _ | P.Timeout _ -> "none"
        in
        (prefix ^ vc.Logic.Formula.vc_name, status, r.P.pr_hints_used,
         r.P.pr_levels, r.P.pr_steps))
      (Vcgen.all_vcs (Vcgen.generate env prog))
  in
  let constraint_hits () =
    (List.assoc "prover_constraints_memo" (P.memo_stats ())).Memo.hits
  in
  let hits0 = constraint_hits () in
  let aes = rows "" (Lazy.force annotated) in
  (* the atom-key memo is consulted only on constraint misses, so a warm
     process may not touch it at all *)
  Alcotest.(check (list string)) "prover memos"
    [ "prover_atom_memo"; "prover_constraints_memo" ]
    (List.map fst (P.memo_stats ()));
  Alcotest.(check bool) "constraints memo hits during the pass" true
    (constraint_hits () > hits0);
  let examples =
    List.concat_map
      (fun stem ->
        let src = Fixture.read (Fixture.example (stem ^ ".mspark")) in
        rows (stem ^ ":") (Typecheck.check (Parser.of_string src)))
      [ "checksum"; "sbox_lookup"; "stream" ]
  in
  let expected =
    Fixture.read (Fixture.test_file "prover_aes_pins.tsv")
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let line (n, r, h, a, s) = Printf.sprintf "%s\t%s\t%d\t%d\t%d" n r h a s in
  Alcotest.(check (list string)) "per-VC status, hints, attempts, steps" expected
    (List.map line (aes @ examples));
  let count p = List.length (List.filter p aes) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 aes in
  Alcotest.(check int) "VCs" 383 (List.length aes);
  Alcotest.(check int) "automatic" 365 (count (fun (_, r, _, _, _) -> r = "automatic"));
  Alcotest.(check int) "hinted" 18 (count (fun (_, r, _, _, _) -> r = "hinted"));
  Alcotest.(check int) "residual" 0 (count (fun (_, r, _, _, _) -> r = "none"));
  Alcotest.(check int) "attempts" 411 (sum (fun (_, _, _, a, _) -> a));
  Alcotest.(check int) "probe steps" 3287 (sum (fun (_, _, _, _, s) -> s))

let test_history_undo_roundtrip () =
  let _, h = Lazy.force pipeline in
  let before = Refactor.History.step_count h in
  let step = Refactor.History.undo h in
  Alcotest.(check int) "one fewer step" (before - 1) (Refactor.History.step_count h);
  (* re-applying the recorded after-state must still pass the KATs *)
  let env, prog = Typecheck.check step.Refactor.History.st_after in
  Alcotest.(check bool) "recorded after-state is sound" true
    (Aes.Aes_kat.all_pass (Aes.Aes_kat.run_vectors env prog));
  (* restore the history for other tests *)
  let env', prog' = Typecheck.check step.Refactor.History.st_after in
  ignore (env', prog')

let suites =
  [ ( "aes:pipeline",
      [ Alcotest.test_case "14 blocks complete" `Slow test_blocks_complete;
        Alcotest.test_case "KATs hold at every block" `Slow test_kats_at_every_block;
        Alcotest.test_case "size halves" `Slow test_size_shrinks;
        Alcotest.test_case "complexity declines" `Slow test_complexity_declines;
        Alcotest.test_case "~25 subprograms" `Slow test_subprogram_count;
        Alcotest.test_case "match-ratio trajectory" `Slow test_match_ratio_trajectory;
        Alcotest.test_case "annotations type-check" `Slow test_annotated_typechecks;
        Alcotest.test_case "implementation proof" `Slow test_implementation_proof;
        Alcotest.test_case "extraction + implication proof" `Slow
          test_extraction_and_implication;
        Alcotest.test_case "implication lemmas: jobs=2 = jobs=1" `Slow
          test_implication_jobs;
        Alcotest.test_case "extracted spec executes FIPS KAT" `Slow
          test_extracted_spec_is_executable;
        Alcotest.test_case "packaged pipeline verdict" `Slow
          test_packaged_pipeline_verdict;
        Alcotest.test_case "refactor attribution closes" `Slow
          test_refactor_attribution;
        Alcotest.test_case "simplify memo second pass" `Slow
          test_simplify_memo_second_pass;
        Alcotest.test_case "prover pins on the AES VCs" `Slow test_prover_pins;
        Alcotest.test_case "history undo" `Slow test_history_undo_roundtrip ] ) ]
