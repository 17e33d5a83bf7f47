(* Tests for the static-analysis subsystem (lib/analysis): the interval
   domain, the six Examiner-style flow checks, the amenability lint, and
   interval discharge of exception-freedom VCs.

   The AES fixtures double as the acceptance experiment: zero flow errors
   on both AES forms and the example programs, the seeded-defect flow
   split (only the benign dead store is flow-detectable), and >= 25% of
   exception-freedom VCs discharged with the same proof outcome whether
   or not the prover sees the discharged VCs. *)

open Minispark
module A = Analysis
module I = A.Itv

let optimized = lazy (Aes.Aes_impl.checked ())

let annotated =
  lazy
    (let snapshots, _ = Aes.Aes_refactoring.run () in
     let final = (List.nth snapshots 14).Aes.Aes_refactoring.sn_program in
     Typecheck.check (Aes.Aes_annotations.annotate final))

let codes diags = List.map (fun d -> d.A.Diag.d_code) diags
let errors_of diags = List.filter (fun d -> d.A.Diag.d_severity = A.Diag.Error) diags

(* ------------------------------------------------------------------ *)
(* interval domain                                                     *)
(* ------------------------------------------------------------------ *)

let test_itv_lattice () =
  let a = I.range 0 10 and b = I.range 5 20 in
  Alcotest.(check bool) "join upper bound a" true (I.subset a (I.join a b));
  Alcotest.(check bool) "join upper bound b" true (I.subset b (I.join a b));
  Alcotest.(check bool) "meet lower bound" true (I.subset (I.meet a b) a);
  Alcotest.(check bool) "meet is [5,10]" true (I.equal (I.meet a b) (I.range 5 10));
  Alcotest.(check bool) "bot meet" true (I.is_bot (I.meet (I.range 0 1) (I.range 3 4)));
  Alcotest.(check bool) "widen covers join" true
    (I.subset (I.join a b) (I.widen a (I.join a b)));
  Alcotest.(check bool) "contains" true (I.contains (I.range 3 7) 5);
  Alcotest.(check bool) "not contains" false (I.contains (I.range 3 7) 8)

let test_itv_arith () =
  let r07 = I.range 0 7 in
  Alcotest.(check bool) "add" true
    (I.equal (I.add (I.range 1 2) (I.range 10 20)) (I.range 11 22));
  Alcotest.(check bool) "mul const" true
    (I.equal (I.mul (I.const 3) (I.const 4)) (I.const 12));
  Alcotest.(check bool) "wrap in range" true (I.equal (I.wrap 8 r07) r07);
  Alcotest.(check bool) "wrap folds" true (I.subset (I.wrap 8 (I.range 6 9)) r07);
  Alcotest.(check bool) "mod positive" true (I.subset (I.md I.top (I.const 8)) r07);
  Alcotest.(check bool) "band mask" true
    (I.subset (I.band 256 I.top (I.const 0x0f)) (I.range 0 15));
  Alcotest.(check bool) "shr shrinks" true
    (I.subset (I.shr 256 (I.range 0 255) (I.const 4)) (I.range 0 15))

let test_itv_congruence () =
  (* 0 join 4 join 8: stride-4 congruence survives, so 6 is excluded *)
  let j = I.join (I.const 0) (I.join (I.const 4) (I.const 8)) in
  Alcotest.(check bool) "contains 4" true (I.contains j 4);
  Alcotest.(check bool) "excludes 6" false (I.contains j 6);
  Alcotest.(check bool) "ne across classes" true (I.definitely_ne j (I.const 5));
  Alcotest.(check bool) "lt" true (I.definitely_lt (I.range 0 3) (I.range 4 9))

(* ------------------------------------------------------------------ *)
(* flow checks on small constructed programs                           *)
(* ------------------------------------------------------------------ *)

let one_proc ?locals body =
  Builder.(
    program "t"
      [ typedef "byte" (t_mod 256);
        proc "p"
          ~params:[ param "a" (t_named "byte"); param_out "r" (t_named "byte") ]
          ?locals body ])

let flow_of prog =
  let _, prog = Typecheck.check prog in
  A.Flow.check prog

(* read before write: [x] flows into [r] before its first assignment *)
let uninit_prog () =
  Builder.(
    one_proc
      ~locals:[ local "x" (t_named "byte") ]
      [ set "r" (v "x"); set "x" (i 1) ])

let test_flow_uninit () =
  let diags = flow_of (uninit_prog ()) in
  Alcotest.(check bool) "uninit flagged" true
    (List.mem A.Diag.FLOW_UNINIT (codes diags));
  Alcotest.(check bool) "is an error" true (errors_of diags <> [])

(* the served job and the orchestrated run share one analysis gate: the
   same program fails both with the same [Fault.Analysis] *)
let test_analysis_gate_drivers () =
  let src = Pretty.program_to_string (uninit_prog ()) in
  let env, prog = Typecheck.check (Parser.of_string src) in
  let served =
    Echo.Verify.run
      ~options:{ Echo.Verify.default_options with Echo.Verify.vo_analyze = true }
      ~source:src ()
  in
  let case =
    {
      Echo.Pipeline.cs_name = "uninit";
      cs_refactor =
        (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
      cs_annotate = Fun.id;
      cs_original_spec = { Specl.Sast.th_name = "uninit"; th_types = []; th_defs = [] };
      cs_synonyms = [];
      cs_lemmas = (fun ~extracted:_ -> []);
    }
  in
  let orchestrated =
    Echo.Orchestrator.run
      ~config:{ Echo.Orchestrator.default_config with Echo.Orchestrator.oc_analyze = true }
      case
  in
  match (served.Echo.Verify.vj_verdict, orchestrated.Echo.Orchestrator.o_verdict) with
  | ( Echo.Verify.Failed (Echo.Fault.Analysis a),
      Echo.Orchestrator.Failed (Echo.Fault.Analysis b) ) ->
      Alcotest.(check bool) "at least one error" true (a.errors > 0);
      Alcotest.(check int) "same error count" a.errors b.errors;
      Alcotest.(check string) "same first error" a.first b.first
  | _ ->
      Alcotest.failf "expected Failed (Analysis) from both drivers, got %s / %a"
        (Echo.Verify.verdict_string served.Echo.Verify.vj_verdict)
        Echo.Orchestrator.pp_verdict orchestrated.Echo.Orchestrator.o_verdict

let test_flow_out_unset () =
  let diags =
    flow_of
      Builder.(
        one_proc
          ~locals:[ local "x" (t_named "byte") ]
          [ set "x" (v "a"); set "x" (v "x" + i 1) ])
  in
  Alcotest.(check bool) "out unset flagged" true
    (List.mem A.Diag.FLOW_OUT_UNSET (codes diags))

let test_flow_ineffective () =
  let diags =
    flow_of
      Builder.(
        one_proc
          ~locals:[ local "x" (t_named "byte") ]
          [ set "x" (v "a"); set "x" (i 3); set "r" (v "x") ])
  in
  Alcotest.(check bool) "dead store flagged" true
    (List.mem A.Diag.FLOW_INEFFECTIVE (codes diags))

let test_flow_unused () =
  let diags =
    flow_of
      Builder.(
        one_proc ~locals:[ local ~init:(i 0) "x" (t_named "byte") ] [ set "r" (v "a") ])
  in
  Alcotest.(check bool) "unused local flagged" true
    (List.mem A.Diag.FLOW_UNUSED (codes diags))

let test_flow_unreachable () =
  let prog =
    Builder.(
      program "t"
        [ typedef "byte" (t_mod 256);
          func "f"
            ~params:[ param "a" (t_named "byte") ]
            ~ret:(t_named "byte")
            [ return (v "a"); return (i 0) ] ])
  in
  Alcotest.(check bool) "unreachable flagged" true
    (List.mem A.Diag.FLOW_UNREACHABLE (codes (flow_of prog)))

let test_flow_stable_cond () =
  let diags =
    flow_of
      Builder.(
        one_proc
          ~locals:[ local ~init:(i 0) "x" (t_named "byte") ]
          [ while_ (v "a" < i 10) [ set "x" (v "x" + i 1) ]; set "r" (v "x") ])
  in
  Alcotest.(check bool) "stable condition flagged" true
    (List.mem A.Diag.FLOW_STABLE_COND (codes diags))

let test_flow_clean_program () =
  let diags =
    flow_of
      Builder.(
        one_proc
          ~locals:[ local "x" (t_named "byte") ]
          [ set "x" (v "a");
            for_ "k" ~lo:(i 0) ~hi:(i 3) [ set "x" (bxor (v "x") (v "a")) ];
            set "r" (v "x") ])
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length diags)

(* ------------------------------------------------------------------ *)
(* abstract interpretation                                             *)
(* ------------------------------------------------------------------ *)

let test_absint_loop_bounds () =
  let prog =
    Builder.(
      program "t"
        [ typedef "byte" (t_mod 256);
          proc "p"
            ~params:[ param_out "r" (t_named "byte") ]
            ~locals:[ local ~init:(i 0) "x" (t_named "byte") ]
            [ for_ "k" ~lo:(i 0) ~hi:(i 9) [ set "x" (v "x" + i 1) ];
              set "r" (v "x") ] ])
  in
  let env, prog = Typecheck.check prog in
  let sub = Option.get (Ast.find_sub prog "p") in
  let exits = A.Absint.exit_intervals env prog sub in
  let r = List.assoc "r" exits in
  (* x counts to 10; the Tmod 256 wrap keeps the hull within the type *)
  Alcotest.(check bool) "r contains 10" true (I.contains r 10);
  Alcotest.(check bool) "r within byte" true (I.subset r (I.range 0 255))

(* ------------------------------------------------------------------ *)
(* example programs: flow-clean and pretty/parse round-trip            *)
(* ------------------------------------------------------------------ *)

let example_files = [ "checksum.mspark"; "sbox_lookup.mspark" ]

let read_example name = Fixture.read (Fixture.example name)

let test_examples_flow_clean () =
  List.iter
    (fun path ->
      let _, prog = Typecheck.check (Parser.of_string (read_example path)) in
      Alcotest.(check int)
        (Filename.basename path ^ " diagnostics")
        0
        (List.length (A.Flow.check prog)))
    example_files

let test_examples_roundtrip () =
  List.iter
    (fun path ->
      let prog = Parser.of_string (read_example path) in
      let s1 = Pretty.program_to_string prog in
      let s2 = Pretty.program_to_string (Parser.of_string s1) in
      Alcotest.(check string) (Filename.basename path ^ " round-trip") s1 s2)
    example_files

(* ------------------------------------------------------------------ *)
(* AES: flow-clean, amenability, seeded-defect split                   *)
(* ------------------------------------------------------------------ *)

let test_aes_optimized_flow_clean () =
  let _, prog = Lazy.force optimized in
  Alcotest.(check int) "flow errors on optimized AES" 0
    (List.length (errors_of (A.Flow.check prog)))

let test_aes_annotated_flow_clean () =
  let env, prog = Lazy.force annotated in
  Alcotest.(check int) "flow errors on annotated AES" 0
    (List.length (errors_of (A.Flow.check prog)));
  Alcotest.(check int) "examiner errors (flow + amenability) on annotated AES" 0
    (A.Examiner.errors (A.Examiner.analyze env prog))

let test_aes_amenability () =
  (* the optimized program is full of unrolled runs: the lint must point
     at Reroll, the paper's flagship transformation *)
  let _, prog = Lazy.force optimized in
  let diags = A.Amenability.check prog in
  Alcotest.(check bool) "reroll finding present" true
    (List.mem A.Diag.AMEN_REROLL (codes diags));
  Alcotest.(check bool) "all info severity" true
    (List.for_all (fun d -> d.A.Diag.d_severity = A.Diag.Info) diags)

let test_defect_flow_split () =
  (* §7 cross-check: value/operator/reference/index mutations preserve
     def-use structure, so flow analysis stays silent on defects 1-14;
     the benign defect 15 (a dead store) is exactly the flow-detectable
     one *)
  let _, prog = Lazy.force optimized in
  List.iter
    (fun d ->
      let _, p' = Typecheck.check (d.Defects.Seed.d_apply prog) in
      let diags = A.Flow.check p' in
      if d.Defects.Seed.d_id = 15 then begin
        Alcotest.(check int) "defect 15: one diagnostic" 1 (List.length diags);
        Alcotest.(check bool) "defect 15: ineffective assignment" true
          (codes diags = [ A.Diag.FLOW_INEFFECTIVE ])
      end
      else
        Alcotest.(check int)
          (Printf.sprintf "defect %d: no diagnostics" d.Defects.Seed.d_id)
          0 (List.length diags))
    (Defects.Seed.seed_all prog)

let test_deleted_init_is_uninit () =
  (* deleting the first write of encrypt leaves a definite use-before-set
     that flow analysis must catch as an error *)
  let _, prog = Lazy.force optimized in
  let p' = Defects.Seed.delete_statement ~sub_name:"encrypt" ~nth:0 prog in
  let _, p' = Typecheck.check p' in
  let diags = A.Flow.check p' in
  Alcotest.(check bool) "uninit error" true
    (List.exists
       (fun d -> d.A.Diag.d_code = A.Diag.FLOW_UNINIT && d.A.Diag.d_sub = "encrypt")
       (errors_of diags))

(* ------------------------------------------------------------------ *)
(* interval discharge of exception-freedom VCs                         *)
(* ------------------------------------------------------------------ *)

let test_discharge_fraction () =
  let env, prog = Lazy.force annotated in
  let an = A.Examiner.analyze ~vcs:true env prog in
  Alcotest.(check bool) "has exception-freedom VCs" true (an.A.Examiner.ex_vcs_total > 0);
  Alcotest.(check bool)
    (Printf.sprintf "discharged %d/%d >= 25%%" an.A.Examiner.ex_vcs_discharged
       an.A.Examiner.ex_vcs_total)
    true
    (an.A.Examiner.ex_vcs_discharged * 4 >= an.A.Examiner.ex_vcs_total);
  (* every exception-freedom VC is either discharged or sent to the prover *)
  let exn_free =
    List.filter
      (fun (vc : Logic.Formula.vc) -> A.Discharge.attempted_kind vc.Logic.Formula.vc_kind)
      (Vcgen.all_vcs (Vcgen.generate env prog))
  in
  let sent = List.filter (fun vc -> not (A.Discharge.vc_discharged vc)) exn_free in
  Alcotest.(check int) "discharged + sent to the prover = total" an.A.Examiner.ex_vcs_total
    (an.A.Examiner.ex_vcs_discharged + List.length sent);
  Alcotest.(check int) "one discharged entry per discharged VC"
    an.A.Examiner.ex_vcs_discharged (List.length an.A.Examiner.ex_discharged)

let test_discharge_preserves_verdict () =
  (* pre-discharging must not change what the prover concludes about the
     rest: same residual/timeout sets, every discharged VC accounted for *)
  let env, prog = Lazy.force annotated in
  let base = Echo.Implementation_proof.run env prog in
  let with_an =
    Echo.Implementation_proof.run ~discharge:A.Discharge.vc_discharged env prog
  in
  let module IP = Echo.Implementation_proof in
  Alcotest.(check int) "same VC count" base.IP.ip_total with_an.IP.ip_total;
  Alcotest.(check int) "same residual" base.IP.ip_residual with_an.IP.ip_residual;
  Alcotest.(check int) "same timeouts" base.IP.ip_timed_out with_an.IP.ip_timed_out;
  Alcotest.(check bool) "discharged nonempty" true (with_an.IP.ip_discharged > 0);
  Alcotest.(check int) "statuses partition the VCs" with_an.IP.ip_total
    (with_an.IP.ip_auto + with_an.IP.ip_hinted + with_an.IP.ip_residual
    + with_an.IP.ip_timed_out + with_an.IP.ip_discharged);
  (* every statically discharged VC is one the prover could do on its own:
     the analysis only removes work, it never hides a failure *)
  List.iter
    (fun (vr : IP.vc_result) ->
      if vr.IP.vr_status = IP.Discharged then
        let name = vr.IP.vr_vc.Logic.Formula.vc_name in
        let in_base =
          List.find
            (fun (b : IP.vc_result) ->
              String.equal b.IP.vr_vc.Logic.Formula.vc_name name)
            base.IP.ip_results
        in
        match in_base.IP.vr_status with
        | IP.Auto | IP.Hinted _ -> ()
        | _ ->
            Alcotest.failf "discharged VC %s was not prover-provable" name)
    with_an.IP.ip_results

let suites =
  [
    ( "analysis-itv",
      [
        Alcotest.test_case "lattice" `Quick test_itv_lattice;
        Alcotest.test_case "arithmetic" `Quick test_itv_arith;
        Alcotest.test_case "congruence" `Quick test_itv_congruence;
      ] );
    ( "analysis-flow",
      [
        Alcotest.test_case "uninit" `Quick test_flow_uninit;
        Alcotest.test_case "one gate for both drivers" `Quick
          test_analysis_gate_drivers;
        Alcotest.test_case "out unset" `Quick test_flow_out_unset;
        Alcotest.test_case "ineffective" `Quick test_flow_ineffective;
        Alcotest.test_case "unused" `Quick test_flow_unused;
        Alcotest.test_case "unreachable" `Quick test_flow_unreachable;
        Alcotest.test_case "stable condition" `Quick test_flow_stable_cond;
        Alcotest.test_case "clean program" `Quick test_flow_clean_program;
        Alcotest.test_case "examples flow-clean" `Quick test_examples_flow_clean;
        Alcotest.test_case "examples round-trip" `Quick test_examples_roundtrip;
      ] );
    ( "analysis-absint",
      [ Alcotest.test_case "loop bounds" `Quick test_absint_loop_bounds ] );
    ( "analysis-aes",
      [
        Alcotest.test_case "optimized flow-clean" `Quick test_aes_optimized_flow_clean;
        Alcotest.test_case "annotated flow-clean" `Quick test_aes_annotated_flow_clean;
        Alcotest.test_case "amenability" `Quick test_aes_amenability;
        Alcotest.test_case "defect flow split" `Quick test_defect_flow_split;
        Alcotest.test_case "deleted init caught" `Quick test_deleted_init_is_uninit;
        Alcotest.test_case "discharge >= 25%" `Quick test_discharge_fraction;
        Alcotest.test_case "discharge preserves verdict" `Quick
          test_discharge_preserves_verdict;
      ] );
  ]
