(* Fault injection for the pipeline machinery itself (cf. {!Seed}, which
   injects defects into the program under verification).  Each probe
   sabotages exactly one stage, runs the orchestrator, and checks that the
   failure was absorbed the way the resilience contract promises. *)

open Minispark
module O = Echo.Orchestrator
module CK = Echo.Checkpoint
module F = Echo.Fault
module IP = Echo.Implementation_proof

type probe =
  | P_refactor_reject
  | P_annotate_ill_typed
  | P_vcgen_infeasible
  | P_prover_timeout
  | P_lemma_crash

let all_probes =
  [ P_refactor_reject; P_annotate_ill_typed; P_vcgen_infeasible;
    P_prover_timeout; P_lemma_crash ]

let probe_name = function
  | P_refactor_reject -> "refactor-reject"
  | P_annotate_ill_typed -> "annotate-ill-typed"
  | P_vcgen_infeasible -> "vcgen-infeasible"
  | P_prover_timeout -> "prover-timeout"
  | P_lemma_crash -> "lemma-crash"

let target_stage = function
  | P_refactor_reject -> CK.S_refactor
  | P_annotate_ill_typed -> CK.S_annotate
  | P_vcgen_infeasible -> CK.S_impl
  | P_prover_timeout -> CK.S_impl
  | P_lemma_crash -> CK.S_implication

(* A declaration block that parses but cannot type-check: the assignment
   references a name that is never declared.  Appended to whatever the
   real annotation step produces, it turns the result ill-typed without
   touching the case study's own declarations. *)
let ill_typed_decls =
  lazy
    (Parser.of_string
       {|
program chaos is
  type chaos_byte is mod 256;
  procedure chaos_boom (x : out chaos_byte)
  is
  begin
    x := chaos_undeclared;
  end chaos_boom;
end chaos;|})
      .Ast.prog_decls

let case_with probe (cs : Echo.Pipeline.case_study) : Echo.Pipeline.case_study =
  match probe with
  | P_refactor_reject ->
      {
        cs with
        Echo.Pipeline.cs_name = cs.Echo.Pipeline.cs_name ^ "+" ^ probe_name probe;
        cs_refactor =
          (fun ?certify:_ () ->
            raise
              (Refactor.Transform.Not_applicable
                 "chaos: injected refactoring rejection"));
      }
  | P_annotate_ill_typed ->
      {
        cs with
        Echo.Pipeline.cs_name = cs.Echo.Pipeline.cs_name ^ "+" ^ probe_name probe;
        cs_annotate =
          (fun p ->
            let a = cs.Echo.Pipeline.cs_annotate p in
            { a with Ast.prog_decls = a.Ast.prog_decls @ Lazy.force ill_typed_decls });
      }
  | P_vcgen_infeasible | P_prover_timeout | P_lemma_crash -> cs

let crashing_lemma =
  {
    Echo.Implication.lm_name = "chaos_crash";
    lm_original = "<chaos>";
    lm_extracted = "<chaos>";
    lm_run = (fun () -> failwith "chaos: injected lemma crash");
  }

let config_with probe (config : O.config) : O.config =
  let hooks = config.O.oc_hooks in
  match probe with
  | P_refactor_reject | P_annotate_ill_typed -> config
  | P_vcgen_infeasible ->
      {
        config with
        O.oc_hooks =
          {
            hooks with
            O.h_vcs =
              (fun _ ->
                raise (Vcgen.Infeasible "chaos: injected infeasible VC generation"));
          };
      }
  | P_prover_timeout ->
      (* a zero per-level budget, which no search can meet: every VC must
         climb the whole capability ladder and come back [Timed_out],
         never hang *)
      { config with O.oc_vc_deadline_s = Some 0.0 }
  | P_lemma_crash ->
      {
        config with
        O.oc_hooks =
          { hooks with O.h_lemmas = (fun lemmas -> lemmas @ [ crashing_lemma ]) };
      }

(* ------------------------------------------------------------------ *)
(* Expectations                                                        *)
(* ------------------------------------------------------------------ *)

let verdict_str v = Fmt.str "%a" O.pp_verdict v

let expect_failed_with probe ~(matches : F.t -> bool) (r : O.report) =
  match r.O.o_verdict with
  | O.Failed f when matches f -> (
      (* the sabotaged stage must be the one marked failed, and nothing
         after it may have run *)
      match List.assoc_opt (target_stage probe) r.O.o_stages with
      | Some (O.St_failed _) -> Ok ()
      | _ ->
          Error
            (Printf.sprintf "%s: fault not recorded at stage %s" (probe_name probe)
               (CK.stage_name (target_stage probe))))
  | v ->
      Error
        (Printf.sprintf "%s: expected Failed with matching fault, got %s"
           (probe_name probe) (verdict_str v))

let expect probe (r : O.report) =
  match probe with
  | P_refactor_reject ->
      expect_failed_with probe r ~matches:(function F.Refactor _ -> true | _ -> false)
  | P_annotate_ill_typed ->
      expect_failed_with probe r ~matches:(function F.Type _ -> true | _ -> false)
  | P_vcgen_infeasible ->
      expect_failed_with probe r
        ~matches:(function F.Vc_infeasible _ -> true | _ -> false)
  | P_prover_timeout -> (
      (* graceful degradation: the run completes, evidence survives, every
         starved VC shows the full capability ladder *)
      match (r.O.o_verdict, r.O.o_impl) with
      | O.Degraded d, Some impl ->
          if d.O.dg_timed_out = 0 then
            Error "prover-timeout: degradation records no timed-out VCs"
          else if
            List.exists
              (fun (vr : IP.vc_result) ->
                match vr.IP.vr_status with
                | IP.Timed_out _ -> vr.IP.vr_attempts < 2
                | _ -> false)
              impl.IP.ip_results
          then Error "prover-timeout: a timed-out VC skipped the capability ladder"
          else Ok ()
      | v, _ ->
          Error
            (Printf.sprintf "prover-timeout: expected Degraded with evidence, got %s"
               (verdict_str v)))
  | P_lemma_crash -> (
      (* the crashing lemma is absorbed inside the implication suite (one
         blown lemma never aborts the others), so the stage completes and
         the failure surfaces only in the verdict and the lemma record *)
      match r.O.o_verdict with
      | O.Failed (F.Lemma _) ->
          if
            List.exists
              (fun (name, holds, _) -> String.equal name "chaos_crash" && not holds)
              r.O.o_lemmas
          then Ok ()
          else Error "lemma-crash: injected lemma missing from the record"
      | v ->
          Error
            (Printf.sprintf "lemma-crash: expected Failed (Lemma), got %s"
               (verdict_str v)))

type outcome = {
  co_probe : probe;
  co_report : O.report;
  co_check : (unit, string) result;
}

let run_probe ?(config = O.default_config) probe cs =
  let report = O.run ~config:(config_with probe config) (case_with probe cs) in
  { co_probe = probe; co_report = report; co_check = expect probe report }

let run_suite ?config cs = List.map (fun p -> run_probe ?config p cs) all_probes

let all_ok outcomes = List.for_all (fun o -> Result.is_ok o.co_check) outcomes

let pp_outcome ppf o =
  match o.co_check with
  | Ok () ->
      Fmt.pf ppf "@[<v>probe %-20s absorbed: %a@]" (probe_name o.co_probe)
        O.pp_verdict o.co_report.O.o_verdict
  | Error msg -> Fmt.pf ppf "@[<v>probe %-20s FAILED CHECK: %s@]" (probe_name o.co_probe) msg

let pp_suite ppf outcomes =
  Fmt.pf ppf "@[<v>";
  List.iter (fun o -> Fmt.pf ppf "%a@," pp_outcome o) outcomes;
  let ok = List.length (List.filter (fun o -> Result.is_ok o.co_check) outcomes) in
  Fmt.pf ppf "chaos suite: %d/%d probes absorbed@]" ok (List.length outcomes)
