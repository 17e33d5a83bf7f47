(* One verification job — the service-facing wrapper around the
   parse/check/analyze/prove spine.  See verify.mli for the contract.

   Everything here is defensive: the daemon calls [run] inside a forked
   worker process and must get an [outcome] back whatever the input, so
   every stage body runs under [Fault.guard], baseline problems demote to
   notes, and the progress hook is fenced off from the job. *)

open Minispark

type vc_summary = {
  vs_name : string;
  vs_sub : string;
  vs_digest : string;
  vs_status : string;
  vs_attempts : int;
  vs_time : float;
  vs_cached : bool;
}

type baseline = {
  vb_program : string;
  vb_results : vc_summary list;
}

type options = {
  vo_analyze : bool;
  vo_jobs : int;
  vo_cache : Farm.Cache.t option;
  vo_baseline : baseline option;
  vo_deadline_s : float option;
  vo_max_steps : int;
}

let default_options =
  {
    vo_analyze = false;
    vo_jobs = 1;
    vo_cache = None;
    vo_baseline = None;
    vo_deadline_s = None;
    vo_max_steps = 60_000;
  }

type verdict =
  | Verified
  | Conditional of int
  | Degraded of int
  | Failed of Fault.t

type outcome = {
  vj_verdict : verdict;
  vj_total : int;
  vj_auto : int;
  vj_hinted : int;
  vj_residual : int;
  vj_timed_out : int;
  vj_discharged : int;
  vj_carried : int;
  vj_cache_hits : int;
  vj_cache_misses : int;
  vj_attempts : int;
  vj_impacted_subs : int;
  vj_results : vc_summary list;
  vj_notes : string list;
  vj_seconds : float;
}

let verdict_string = function
  | Verified -> "verified"
  | Conditional _ -> "conditional"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

(* The status-string convention shared with the bench harness: the
   machine-readable per-VC verdict that travels in checkpoints, benches
   and now service baselines. *)
let status_string (st : Implementation_proof.vc_status) =
  match st with
  | Implementation_proof.Auto -> "auto"
  | Implementation_proof.Hinted n -> Printf.sprintf "hinted:%d" n
  | Implementation_proof.Residual r -> "residual:" ^ r
  | Implementation_proof.Timed_out _ -> "timed-out"
  | Implementation_proof.Discharged -> "discharged"

(* Inverse of [status_string], minus timeouts: a timeout is a wall-clock
   accident, not a property of the VC, so a baseline is never allowed to
   replay one (mirrors the proof cache's refusal to store them). *)
let status_of_summary (s : vc_summary) :
    Implementation_proof.vc_status option =
  let open Implementation_proof in
  match s.vs_status with
  | "auto" -> Some Auto
  | "discharged" -> Some Discharged
  | st when String.length st > 7 && String.sub st 0 7 = "hinted:" -> (
      match int_of_string_opt (String.sub st 7 (String.length st - 7)) with
      | Some n when n >= 0 -> Some (Hinted n)
      | _ -> None)
  | st when String.length st > 9 && String.sub st 0 9 = "residual:" ->
      Some (Residual (String.sub st 9 (String.length st - 9)))
  | _ -> None

let status_of_string st =
  match st with
  | "auto" | "discharged" | "timed-out" -> Some st
  | _ when status_of_summary
             { vs_name = ""; vs_sub = ""; vs_digest = ""; vs_status = st;
               vs_attempts = 0; vs_time = 0.0; vs_cached = false }
           <> None -> Some st
  | _ -> None

type stage_hook = stage:string -> [ `Start | `Ok of float | `Failed of string ] -> unit

(* A hook is a courtesy to the caller, never a hazard to the job. *)
let hook (h : stage_hook option) ~stage ev =
  match h with
  | None -> ()
  | Some f -> ( try f ~stage ev with _ -> ())

(* Run one stage body: report start, run under [Fault.guard], report the
   exit either way.  The job's clock, not the stage's, drives deadlines. *)
let staged on_stage ~stage body =
  hook on_stage ~stage `Start;
  let t0 = Logic.Clock.now () in
  match Fault.guard body with
  | Ok v ->
      hook on_stage ~stage (`Ok (Logic.Clock.elapsed t0));
      Ok v
  | Error fault ->
      hook on_stage ~stage (`Failed (Fault.describe fault));
      Error fault

let summarize (vr : Implementation_proof.vc_result) =
  let vc = vr.Implementation_proof.vr_vc in
  {
    vs_name = vc.Logic.Formula.vc_name;
    vs_sub = vc.Logic.Formula.vc_sub;
    vs_digest = Logic.Formula.vc_digest vc;
    vs_status = status_string vr.Implementation_proof.vr_status;
    vs_attempts = vr.Implementation_proof.vr_attempts;
    vs_time = vr.Implementation_proof.vr_time;
    vs_cached = vr.Implementation_proof.vr_cached;
  }

let failed fault ~notes ~seconds =
  {
    vj_verdict = Failed fault;
    vj_total = 0;
    vj_auto = 0;
    vj_hinted = 0;
    vj_residual = 0;
    vj_timed_out = 0;
    vj_discharged = 0;
    vj_carried = 0;
    vj_cache_hits = 0;
    vj_cache_misses = 0;
    vj_attempts = 0;
    vj_impacted_subs = 0;
    vj_results = [];
    vj_notes = List.rev notes;
    vj_seconds = seconds;
  }

(* The flow-analysis gate every driver applies between annotation and
   the proof: error-severity diagnostics refuse the program before any
   proof is attempted. *)
let analysis_gate an =
  if Telemetry.enabled () then
    Telemetry.count
      ~by:(List.length (Analysis.Examiner.diags an))
      "an_diagnostics";
  let errs = Analysis.Examiner.errors an in
  if errs > 0 then begin
    let first =
      match
        List.filter
          (fun d -> d.Analysis.Diag.d_severity = Analysis.Diag.Error)
          (Analysis.Examiner.diags an)
      with
      | d :: _ -> Fmt.str "%a" Analysis.Diag.pp d
      | [] -> ""
    in
    raise (Fault.Fault (Fault.Analysis { errors = errs; first }))
  end

type carry_plan = {
  cp_plan : Analysis.Impact.plan;
  cp_carried_vcs : int;
  cp_carry : Logic.Formula.vc -> Implementation_proof.vc_result option;
}

(* Change-impact planning against a baseline: the baseline source
   re-parses to [old_p], the per-VC summaries supply the digest sets for
   [Impact.refine] and the carry table.  Any defect in the baseline
   (unparseable source, unknown status strings) demotes to a note and a
   full re-prove — a stale or mangled baseline must never fail a job that
   would verify from cold. *)
let plan_carry ?budget ~note env annotated (b : baseline) =
  match Fault.guard (fun () -> snd (Typecheck.check (Parser.of_string b.vb_program))) with
  | Error fault ->
      note (Printf.sprintf "impact: baseline unusable (%s); full re-prove"
              (Fault.describe fault));
      None
  | Ok old_p ->
      let plan = Analysis.Impact.compute ~old_p ~new_p:annotated in
      (* VC-digest refinement: regenerate under the budget the proof uses
         and escalate any carried subprogram whose obligations drifted
         from the baseline's *)
      let current = Vcgen.vc_digests (Vcgen.generate ?budget env annotated) in
      let module M = Map.Make (String) in
      let by_sub =
        List.fold_left
          (fun m (s : vc_summary) ->
            M.update s.vs_sub
              (function None -> Some [ s ] | Some ss -> Some (s :: ss))
              m)
          M.empty b.vb_results
      in
      let baseline_digests =
        M.bindings by_sub
        |> List.map (fun (sub, ss) ->
               (sub, List.map (fun (s : vc_summary) -> s.vs_digest) ss))
      in
      let plan = Analysis.Impact.refine plan ~baseline:baseline_digests ~current in
      (* the carry table: baseline verdicts for carried subprograms, keyed
         strictly by owner + name + formula digest; timeouts are
         wall-clock accidents and are never carried *)
      let carry_tbl = Hashtbl.create 256 in
      let dropped = ref 0 in
      List.iter
        (fun sub ->
          List.iter
            (fun (s : vc_summary) ->
              match status_of_summary s with
              | None -> if s.vs_status <> "timed-out" then incr dropped
              | Some status ->
                  Hashtbl.replace carry_tbl
                    (s.vs_sub ^ "|" ^ s.vs_name ^ "|" ^ s.vs_digest)
                    (status, s.vs_attempts, s.vs_time))
            (Option.value ~default:[] (M.find_opt sub by_sub)))
        plan.Analysis.Impact.pl_carried;
      if !dropped > 0 then
        note (Printf.sprintf
                "impact: %d baseline verdict(s) had unknown status; re-proving them"
                !dropped);
      note (Printf.sprintf
              "impact: %d subprogram(s) re-prove, %d carried (%d VC verdict(s))"
              (List.length plan.Analysis.Impact.pl_impacted)
              (List.length plan.Analysis.Impact.pl_carried)
              (Hashtbl.length carry_tbl));
      let carry (vc : Logic.Formula.vc) =
        match
          Hashtbl.find_opt carry_tbl
            (vc.Logic.Formula.vc_sub ^ "|" ^ vc.Logic.Formula.vc_name ^ "|"
           ^ Logic.Formula.vc_digest vc)
        with
        | None -> None
        | Some (status, attempts, time) ->
            Some
              {
                Implementation_proof.vr_vc = vc;
                vr_status = status;
                vr_attempts = attempts;
                vr_time = time;
                vr_cached = true;
              }
      in
      Some
        { cp_plan = plan; cp_carried_vcs = Hashtbl.length carry_tbl;
          cp_carry = carry }

let run ?(options = default_options) ?on_stage ~source () : outcome =
  let t0 = Logic.Clock.now () in
  let notes = ref [] in
  let note m = notes := m :: !notes in
  let finish_failed fault = failed fault ~notes:!notes ~seconds:(Logic.Clock.elapsed t0) in
  (* parse + typecheck *)
  match
    staged on_stage ~stage:"parse" (fun () ->
        Typecheck.check (Parser.of_string source))
  with
  | Error fault -> finish_failed fault
  | Ok (env, annotated) -> (
      let analysis =
        if not options.vo_analyze then Ok ()
        else
          staged on_stage ~stage:"analyze" (fun () ->
              analysis_gate (Analysis.Examiner.analyze env annotated))
      in
      match analysis with
      | Error fault -> finish_failed fault
      | Ok () -> (
          let carry, impacted =
            match options.vo_baseline with
            | None -> (None, 0)
            | Some b -> (
                match
                  staged on_stage ~stage:"impact" (fun () ->
                      plan_carry ~note env annotated b)
                with
                | Ok (Some cp) ->
                    ( Some cp.cp_carry,
                      List.length cp.cp_plan.Analysis.Impact.pl_impacted )
                | Ok None -> (None, 0)
                | Error fault ->
                    (* impact planning is an optimisation, not a gate *)
                    note
                      (Printf.sprintf "impact: planning failed (%s); full re-prove"
                         (Fault.describe fault));
                    (None, 0))
          in
          let give_up =
            Option.map
              (fun d -> fun () -> Logic.Clock.elapsed t0 > d)
              options.vo_deadline_s
          in
          let discharge =
            if options.vo_analyze then Some Analysis.Discharge.vc_discharged
            else None
          in
          match
            staged on_stage ~stage:"prove" (fun () ->
                Implementation_proof.run_resilient ?give_up ?discharge ?carry
                  ~max_steps:options.vo_max_steps ~jobs:options.vo_jobs
                  ?cache:options.vo_cache env annotated)
          with
          | Error fault -> finish_failed fault
          | Ok rep ->
              let verdict =
                if rep.Implementation_proof.ip_timed_out > 0 then
                  Degraded rep.Implementation_proof.ip_timed_out
                else if rep.Implementation_proof.ip_residual > 0 then
                  Conditional rep.Implementation_proof.ip_residual
                else Verified
              in
              {
                vj_verdict = verdict;
                vj_total = rep.Implementation_proof.ip_total;
                vj_auto = rep.Implementation_proof.ip_auto;
                vj_hinted = rep.Implementation_proof.ip_hinted;
                vj_residual = rep.Implementation_proof.ip_residual;
                vj_timed_out = rep.Implementation_proof.ip_timed_out;
                vj_discharged = rep.Implementation_proof.ip_discharged;
                vj_carried = rep.Implementation_proof.ip_carried;
                vj_cache_hits = rep.Implementation_proof.ip_cache_hits;
                vj_cache_misses = rep.Implementation_proof.ip_cache_misses;
                vj_attempts = rep.Implementation_proof.ip_attempts;
                vj_impacted_subs = impacted;
                vj_results =
                  List.map summarize rep.Implementation_proof.ip_results;
                vj_notes = List.rev !notes;
                vj_seconds = Logic.Clock.elapsed t0;
              }))
