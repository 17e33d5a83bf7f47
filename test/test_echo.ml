(* Tests for the Echo proof drivers: implementation proof accounting and
   implication-proof lemma machinery. *)

open Minispark

let check_src src = Typecheck.check (Parser.of_string src)

let annotated_src =
  {|
program swapper is

  type byte is mod 256;

  procedure swap (a : in out byte; b : in out byte)
  --# post a = b~ and b = a~;
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
  end swap;

  procedure reset (a : out byte; b : out byte)
  --# post a = 0 and b = 0;
  is
  begin
    a := 0;
    b := 0;
  end reset;

end swapper;
|}

let test_impl_proof_clean () =
  let env, prog = check_src annotated_src in
  let r = Echo.Implementation_proof.run env prog in
  Alcotest.(check int) "no residual" 0 r.Echo.Implementation_proof.ip_residual;
  Alcotest.(check bool) "has VCs" true (r.Echo.Implementation_proof.ip_total >= 2);
  Alcotest.(check int) "all subs fully auto" 2 (Echo.Implementation_proof.fully_auto_subs r)

let test_impl_proof_detects_defect () =
  let env, prog =
    check_src (Str_replace.replace annotated_src ~find:"b := t;" ~by:"b := t + 1;")
  in
  let r = Echo.Implementation_proof.run env prog in
  Alcotest.(check bool) "detects wrong swap" true
    (r.Echo.Implementation_proof.ip_residual > 0)

let test_impl_proof_interp_callback () =
  (* a postcondition mentioning a program function on ground arguments is
     discharged by evaluating the function through the interpreter *)
  let env, prog =
    check_src
      {|
program evalme is
  type byte is mod 256;
  function square (x : in byte) return byte
  is
  begin
    return x * x;
  end square;
  procedure store (r : out byte)
  --# post r = square (7);
  is
  begin
    r := 49;
  end store;
end evalme;|}
  in
  let r = Echo.Implementation_proof.run env prog in
  Alcotest.(check int) "ground function post proved" 0
    r.Echo.Implementation_proof.ip_residual

(* ---------------- implication machinery ---------------- *)

let test_lemma_exhaustive_pass () =
  let lemma =
    Echo.Implication.exhaustive ~name:"sq" ~original:"sq" ~extracted:"sq"
      ~domain:(List.init 50 (fun n -> [ Specl.Seval.Vint n ]))
      ~lhs:(fun p -> match p with [ Specl.Seval.Vint n ] -> Specl.Seval.Vint (n * n) | _ -> assert false)
      ~rhs:(fun p -> match p with [ Specl.Seval.Vint n ] -> Specl.Seval.Vint (n * n) | _ -> assert false)
      ()
  in
  let r = Echo.Implication.run [ lemma ] in
  Alcotest.(check int) "proved" 1 r.Echo.Implication.im_proved

let test_lemma_exhaustive_fail () =
  let lemma =
    Echo.Implication.exhaustive ~name:"sq" ~original:"sq" ~extracted:"almost-sq"
      ~domain:(List.init 50 (fun n -> [ Specl.Seval.Vint n ]))
      ~lhs:(fun p -> match p with [ Specl.Seval.Vint n ] -> Specl.Seval.Vint (n * n) | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ Specl.Seval.Vint n ] -> Specl.Seval.Vint (if n = 31 then 0 else n * n)
        | _ -> assert false)
      ()
  in
  let r = Echo.Implication.run [ lemma ] in
  Alcotest.(check int) "refuted" 0 r.Echo.Implication.im_proved;
  match r.Echo.Implication.im_lemmas with
  | [ (_, Echo.Implication.Fails msg) ] ->
      Alcotest.(check bool) "counterexample mentions 31" true
        (Astring.String.is_infix ~affix:"31" msg)
  | _ -> Alcotest.fail "expected a failing lemma"

let test_lemma_sampled_deterministic () =
  let calls = ref [] in
  let lemma () =
    Echo.Implication.sampled ~name:"det" ~original:"d" ~extracted:"d" ~count:10
      ~gen:(fun rng ->
        let v = rng () land 0xff in
        calls := v :: !calls;
        [ Specl.Seval.Vint v ])
      ~lhs:(fun p -> List.hd p)
      ~rhs:(fun p -> List.hd p)
      ()
  in
  ignore (Echo.Implication.run [ lemma () ]);
  let first = !calls in
  calls := [];
  ignore (Echo.Implication.run [ lemma () ]);
  Alcotest.(check (list int)) "same samples on re-run" first !calls

(* holding, failing and raising lemmas keep their outcomes, in list
   order, on the farm *)
let test_lemma_jobs () =
  let sq ~name bad =
    Echo.Implication.exhaustive ~name ~original:"sq" ~extracted:"sq"
      ~domain:(List.init 50 (fun n -> [ Specl.Seval.Vint n ]))
      ~lhs:(fun p -> match p with [ Specl.Seval.Vint n ] -> Specl.Seval.Vint (n * n) | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ Specl.Seval.Vint n ] ->
            if n = bad then failwith "blown" else Specl.Seval.Vint (if n = 31 then 0 else n * n)
        | _ -> assert false)
      ()
  in
  let lemmas = [ sq ~name:"fails" 99; sq ~name:"raises" 7; sq ~name:"fails-too" 40 ] in
  let outcomes jobs =
    List.map
      (fun ((l : Echo.Implication.lemma), o) -> (l.Echo.Implication.lm_name, o))
      (Echo.Implication.run ~jobs lemmas).Echo.Implication.im_lemmas
  in
  let one = outcomes 1 in
  Alcotest.(check (list string)) "list order" [ "fails"; "raises"; "fails-too" ]
    (List.map fst one);
  Alcotest.(check bool) "jobs=3 outcomes = jobs=1" true (outcomes 3 = one)

(* ---------------- pipeline failure paths ---------------- *)

(* a full case study over the swapper program; [sabotage] lets each test
   break exactly one stage *)
let swapper_case ?annotate ?lemmas () : Echo.Pipeline.case_study =
  let env, prog = check_src annotated_src in
  let spec = Extract.extract_program env prog in
  {
    Echo.Pipeline.cs_name = "swapper";
    cs_refactor = (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
    cs_annotate = (match annotate with Some f -> f | None -> fun p -> p);
    cs_original_spec = spec;
    cs_synonyms = [];
    cs_lemmas = (match lemmas with Some f -> f | None -> fun ~extracted:_ -> []);
  }

let test_pipeline_clean_verified () =
  let r = Echo.Orchestrator.run (swapper_case ()) in
  match r.Echo.Orchestrator.o_verdict with
  | Echo.Orchestrator.Verified -> ()
  | v -> Alcotest.failf "expected Verified, got %a" Echo.Orchestrator.pp_verdict v

let test_pipeline_ill_typed_annotation_fails () =
  (* the annotation step yields a program referencing an undeclared name:
     run must fold the type error into a Failed verdict, never raise *)
  let case =
    swapper_case
      ~annotate:(fun _ ->
        Parser.of_string
          {|
program swapper is
  type byte is mod 256;
  procedure broken (a : out byte)
  is
  begin
    a := undeclared_name;
  end broken;
end swapper;|})
      ()
  in
  match (Echo.Orchestrator.run case).Echo.Orchestrator.o_verdict with
  | Echo.Orchestrator.Failed f ->
      Alcotest.(check bool) "mentions the type error" true
        (Astring.String.is_infix ~affix:"type error" (Echo.Fault.describe f))
  | v -> Alcotest.failf "expected Failed, got %a" Echo.Orchestrator.pp_verdict v
  | exception e ->
      Alcotest.failf "Orchestrator.run raised %s" (Printexc.to_string e)

let test_pipeline_rejected_refactoring_fails () =
  let case = swapper_case () in
  let case =
    {
      case with
      Echo.Pipeline.cs_refactor =
        (fun ?certify:_ () ->
          raise (Refactor.Transform.Not_applicable "loop bound mismatch"));
    }
  in
  match (Echo.Orchestrator.run case).Echo.Orchestrator.o_verdict with
  | Echo.Orchestrator.Failed f ->
      Alcotest.(check bool) "mentions applicability" true
        (Astring.String.is_infix ~affix:"not applicable" (Echo.Fault.describe f))
  | v -> Alcotest.failf "expected Failed, got %a" Echo.Orchestrator.pp_verdict v
  | exception e ->
      Alcotest.failf "Orchestrator.run raised %s" (Printexc.to_string e)

let test_pipeline_late_fault_degrades () =
  (* a lemma *builder* that blows up (after the implementation proof has
     produced evidence) must degrade, keeping the proof report *)
  let case = swapper_case ~lemmas:(fun ~extracted:_ -> failwith "lemma builder crash") () in
  let r = Echo.Orchestrator.run case in
  (match r.Echo.Orchestrator.o_verdict with
  | Echo.Orchestrator.Degraded _ -> ()
  | v -> Alcotest.failf "expected Degraded, got %a" Echo.Orchestrator.pp_verdict v);
  match r.Echo.Orchestrator.o_impl with
  | Some impl ->
      Alcotest.(check bool) "implementation evidence survives" true
        (impl.Echo.Implementation_proof.ip_total > 0)
  | None -> Alcotest.fail "implementation report missing"

(* ------------------------------------------------------------------ *)
(* One driver: served jobs run through the orchestrator's stage runner  *)
(* ------------------------------------------------------------------ *)

let read_fixture name =
  let path =
    match List.find_opt Sys.file_exists [ name; Filename.concat "test" name ] with
    | Some p -> p
    | None -> Alcotest.fail ("fixture not found: " ^ name)
  in
  In_channel.with_open_bin path In_channel.input_all

(* [wide] has 2^8 paths, over the VC generator's budget; [wrong]'s
   postcondition is false.  Neither driver may call that verified. *)
let test_infeasible_generation_degrades () =
  let source = read_fixture "path_explosion.mspark" in
  let served = Echo.Verify.run ~source () in
  (match served.Echo.Verify.vj_verdict with
  | Echo.Verify.Degraded { Echo.Orchestrator.dg_fault = Echo.Fault.Vc_infeasible _; _ } -> ()
  | v ->
      Alcotest.failf "served: expected degraded (vc-infeasible), got %a"
        Echo.Orchestrator.pp_verdict v);
  let wire = Serve.Protocol.of_outcome served in
  Alcotest.(check string) "wire verdict" "degraded" wire.Serve.Protocol.w_verdict;
  (match wire.Serve.Protocol.w_fault with
  | Some (cls, detail) ->
      Alcotest.(check string) "wire fault class" "vc-infeasible" cls;
      Alcotest.(check bool) "wire fault names the subprogram" true
        (Astring.String.is_infix ~affix:"wide" detail);
      Alcotest.(check int) "submit exit code" 5
        (Serve.Protocol.exit_code_of_class cls)
  | None -> Alcotest.fail "degraded wire outcome carries no fault");
  let env, prog = check_src source in
  let case =
    {
      Echo.Pipeline.cs_name = "path_explosion";
      cs_refactor =
        (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
      cs_annotate = Fun.id;
      cs_original_spec = Extract.extract_program env prog;
      cs_synonyms = [];
      cs_lemmas = (fun ~extracted:_ -> []);
    }
  in
  match (Echo.Orchestrator.run case).Echo.Orchestrator.o_verdict with
  | Echo.Orchestrator.Degraded { Echo.Orchestrator.dg_fault = Echo.Fault.Vc_infeasible _; _ }
    -> ()
  | v ->
      Alcotest.failf "orchestrated: expected Degraded (Vc_infeasible), got %a"
        Echo.Orchestrator.pp_verdict v

(* the served budget is the run's global deadline: once spent, the next
   stage entry fails the job — reported on the wire's stage names *)
let test_served_deadline_at_stage_entry () =
  let t = ref 0.0 in
  let clock () =
    t := !t +. 1.0;
    !t
  in
  let events = ref [] in
  let on_stage ~stage ev =
    events :=
      (stage, match ev with `Start -> "start" | `Ok _ -> "ok" | `Failed _ -> "failed")
      :: !events
  in
  let o =
    Logic.Clock.with_source clock (fun () ->
        Echo.Verify.run
          ~options:{ Echo.Verify.default_options with Echo.Verify.vo_deadline_s = Some 0.5 }
          ~on_stage ~source:annotated_src ())
  in
  (match o.Echo.Verify.vj_verdict with
  | Echo.Verify.Failed (Echo.Fault.Deadline _) -> ()
  | v -> Alcotest.failf "expected Failed (deadline), got %a" Echo.Orchestrator.pp_verdict v);
  Alcotest.(check int) "no VCs" 0 o.Echo.Verify.vj_total;
  Alcotest.(check (list (pair string string)))
    "parse reported at entry and exit" [ ("parse", "start"); ("parse", "failed") ]
    (List.rev !events)

let suites =
  [ ( "echo:implementation_proof",
      [ Alcotest.test_case "clean program proves" `Quick test_impl_proof_clean;
        Alcotest.test_case "defective program fails" `Quick test_impl_proof_detects_defect;
        Alcotest.test_case "ground evaluation of program functions" `Quick
          test_impl_proof_interp_callback ] );
    ( "echo:implication",
      [ Alcotest.test_case "exhaustive lemma passes" `Quick test_lemma_exhaustive_pass;
        Alcotest.test_case "exhaustive lemma refutes" `Quick test_lemma_exhaustive_fail;
        Alcotest.test_case "sampling is deterministic" `Quick
          test_lemma_sampled_deterministic;
        Alcotest.test_case "farm width keeps outcomes" `Quick test_lemma_jobs ] );
    ( "echo:pipeline-failures",
      [ Alcotest.test_case "clean case verifies" `Quick test_pipeline_clean_verified;
        Alcotest.test_case "ill-typed annotation yields Failed" `Quick
          test_pipeline_ill_typed_annotation_fails;
        Alcotest.test_case "rejected refactoring yields Failed" `Quick
          test_pipeline_rejected_refactoring_fails;
        Alcotest.test_case "late fault degrades with evidence" `Quick
          test_pipeline_late_fault_degrades ] );
    ( "echo:one-driver",
      [ Alcotest.test_case "infeasible VC generation degrades both drivers" `Quick
          test_infeasible_generation_degrades;
        Alcotest.test_case "served deadline fails at stage entry" `Quick
          test_served_deadline_at_stage_entry ] ) ]
