(* Resilient orchestration: the Echo pipeline as independently guarded,
   independently checkpointed stages under explicit budgets.  A case
   study runs all of them; a served job runs annotate (parse + check) →
   analyze? → impact? → implementation proof, through the same stage
   runner, verdict rule and fault rule.

   Design rules:
   - a stage failure is a value ([Fault.t]), never an escaping exception;
   - resources are bounded twice: per VC attempt (prover deadline + fuel)
     and globally (pipeline deadline polled between stages and VCs);
   - whatever evidence survives a fault is reported ([Degraded]), not
     discarded;
   - each completed stage is persisted so [resume] restarts after the
     last good stage rather than from scratch. *)

open Minispark
module CK = Checkpoint

type hooks = {
  h_stage : CK.stage -> unit;
  h_vcs : Logic.Formula.vc list -> Logic.Formula.vc list;
  h_lemmas : Implication.lemma list -> Implication.lemma list;
}

let no_hooks =
  {
    h_stage = (fun _ -> ());
    h_vcs = (fun vcs -> vcs);
    h_lemmas = (fun ls -> ls);
  }

type cache_mode =
  | Cache_default
  | Cache_dir of string
  | Cache_off

type config = {
  oc_run_dir : string option;
  oc_global_deadline_s : float option;
  oc_vc_deadline_s : float option;
  oc_max_steps : int;
  oc_analyze : bool;
  oc_certify : bool;
  oc_jobs : int;
  oc_cache : cache_mode;
  oc_baseline : string option;
  oc_edit : (Ast.program -> Ast.program) option;
  oc_carry : bool;
  oc_hooks : hooks;
}

let default_config =
  {
    oc_run_dir = None;
    oc_global_deadline_s = None;
    oc_vc_deadline_s = None;
    oc_max_steps = 60_000;
    oc_analyze = false;
    oc_certify = false;
    oc_jobs = 1;
    oc_cache = Cache_default;
    oc_baseline = None;
    oc_edit = None;
    oc_carry = true;
    oc_hooks = no_hooks;
  }

(* effective cache directory: an explicit [--cache-dir] wins; otherwise
   the cache lives beside the checkpoints so [--resume] inherits it — and
   an incremental run shares the baseline's cache, so re-proved VCs whose
   keys survived the edit still replay; no run dir and no explicit dir
   means no persistence to offer *)
let cache_dir_of cfg =
  match cfg.oc_cache with
  | Cache_off -> None
  | Cache_dir d -> Some d
  | Cache_default -> (
      match (cfg.oc_baseline, cfg.oc_run_dir) with
      | Some b, _ -> Some (Filename.concat b "proof-cache")
      | None, Some d -> Some (Filename.concat d "proof-cache")
      | None, None -> None)

type stage_status =
  | St_ok of { st_time : float; st_from_checkpoint : bool }
  | St_failed of Fault.t
  | St_skipped

type degradation = {
  dg_stage : string;
  dg_fault : Fault.t;
  dg_residual : int;
  dg_timed_out : int;
  dg_lemmas_failed : int;
}

type verdict =
  | Verified
  | Conditionally_verified of int
  | Degraded of degradation
  | Failed of Fault.t

type report = {
  o_case : string;
  o_stages : (CK.stage * stage_status) list;
  o_refactor_steps : int;
  o_analysis : Analysis.Examiner.t option;
  o_certify : Refactor.Certify.audit option;
  o_impact : CK.impact_audit option;
  o_impl : Implementation_proof.report option;
  o_results : Implementation_proof.vc_summary list;
  o_outline : Analysis.Semdiff.outline option;
  o_match : Specl.Match_ratio.result option;
  o_lemmas : (string * bool * string) list;
  o_notes : string list;
  o_verdict : verdict;
  o_attempts : int;
  o_time : float;
}

type progress = CK.stage -> [ `Start | `Ok of float | `Failed of string ] -> unit

(* ------------------------------------------------------------------ *)
(* Running state threaded through the stages                           *)
(* ------------------------------------------------------------------ *)

(* Baseline payloads for incremental runs, snapshotted before any stage
   writes: when the run directory IS the baseline directory, stages
   overwrite the files they were loaded from, so reading lazily mid-run
   would hand the impact analysis its own output as the baseline.  A
   case study's baseline source is where its annotate stage starts; a
   served job's baseline arrives as an outline and fills only the last
   two. *)
type baseline = {
  b_refactor : CK.payload option;
  b_certify : CK.payload option;
  b_annotate : string option;                       (* baseline source *)
  b_outline : Analysis.Semdiff.outline option;
  b_results : Implementation_proof.vc_summary list option;
}

let no_baseline =
  { b_refactor = None; b_certify = None; b_annotate = None; b_outline = None;
    b_results = None }

type state = {
  cfg : config;
  case : string;            (* checkpoint file key *)
  run_dir : string option;  (* [None]: nothing is loaded or persisted *)
  resume_run : bool;
  incremental : bool;       (* an impact stage runs against [baseline] *)
  global_deadline : float;  (* absolute monotonic clock value *)
  mutable baseline : baseline;  (* a case study's annotate stage adds the outline *)
  cache : Farm.Cache.t option Lazy.t;  (* resolved once, on first use *)
  on_stage : progress;
  t0 : float;               (* run start, monotonic *)
  root_span : int;
  vcgen_memo0 : Memo.stats; (* VC-generation memo at run start *)
  mutable statuses : (CK.stage * stage_status) list;  (* reverse order *)
  mutable notes : string list;
  mutable degradations : (string * Fault.t) list;  (* reverse order *)
  (* what the stages produced, for the report *)
  mutable steps : int;
  mutable analysis : Analysis.Examiner.t option;
  mutable certify : Refactor.Certify.audit option;
  mutable impact : CK.impact_audit option;
  mutable impl : Implementation_proof.report option;
  mutable summaries : Implementation_proof.vc_summary list;  (* of [impl] *)
  mutable outline : Analysis.Semdiff.outline option;  (* of the annotated program *)
  mutable match_result : Specl.Match_ratio.result option;
  mutable lemmas : (string * bool * string) list;
}

let note st fmt = Printf.ksprintf (fun s -> st.notes <- s :: st.notes) fmt

let degrade st stage fault = st.degradations <- (CK.stage_name stage, fault) :: st.degradations

let global_expired st = Logic.Clock.expired st.global_deadline

(* [payload] runs only when there is a directory to write it to: a
   served job pays for no pretty-printing or JSON it would discard *)
let save_checkpoint st stage payload =
  match st.run_dir with
  | None -> ()
  | Some dir -> (
      match CK.save ~dir ~case:st.case stage (payload ()) with
      | Ok () -> ()
      | Error e -> note st "checkpoint write failed for %s: %s" (CK.stage_name stage) e)

let load_checkpoint st stage =
  if not st.resume_run then None
  else
    match st.run_dir with
    | None -> None
    | Some dir -> (
        match CK.load ~dir ~case:st.case stage with
        | None -> None
        | Some (Ok payload) -> Some payload
        | Some (Error e) ->
            note st "ignoring unreadable checkpoint for %s: %s" (CK.stage_name stage) e;
            None)

(* Run one stage: global-deadline check, stage-entry hook, checkpoint
   shortcut, then the body; any exception becomes the stage's fault.
   Each call emits exactly one [stage] span whose [outcome] attribute
   mirrors the recorded status, and reports its entry and exit to the
   run's progress callback (whose own exceptions are swallowed: progress
   is a courtesy to the caller, never a hazard to the run). *)
let stage st (stage_id : CK.stage) ~(from_ckpt : unit -> 'a option) ~(body : unit -> 'a)
    : ('a, Fault.t) result =
  let progress ev = try st.on_stage stage_id ev with _ -> () in
  progress `Start;
  let span = Telemetry.start_span ~cat:Telemetry.cat_stage (CK.stage_name stage_id) in
  let ok ~outcome st_time ~st_from_checkpoint v =
    st.statuses <- (stage_id, St_ok { st_time; st_from_checkpoint }) :: st.statuses;
    Telemetry.finish_span span ~attrs:[ ("outcome", Telemetry.S outcome) ];
    progress (`Ok st_time);
    Ok v
  in
  let failed ~outcome f =
    st.statuses <- (stage_id, St_failed f) :: st.statuses;
    Telemetry.finish_span span ~attrs:[ ("outcome", Telemetry.S outcome) ];
    progress (`Failed (Fault.describe f));
    Error f
  in
  if global_expired st then
    failed ~outcome:"deadline"
      (Fault.Deadline
         {
           stage = CK.stage_name stage_id;
           budget = Option.value ~default:0.0 st.cfg.oc_global_deadline_s;
         })
  else
    match Fault.guard (fun () -> st.cfg.oc_hooks.h_stage stage_id) with
    | Error f -> failed ~outcome:"failed" f
    | Ok () -> (
        match from_ckpt () with
        | Some v -> ok ~outcome:"from-checkpoint" 0.0 ~st_from_checkpoint:true v
        | None -> (
            let t0 = Logic.Clock.now () in
            match Fault.guard body with
            | Ok v ->
                let st_time = Logic.Clock.elapsed t0 in
                (* stage durations get their own coarse bucket ladder:
                   under [default_buckets] every stage lands in the top
                   bucket and the histogram says nothing *)
                Telemetry.observe ~buckets:Telemetry.stage_buckets
                  "stage_wall_s" st_time;
                ok ~outcome:"ok" st_time ~st_from_checkpoint:false v
            | Error f -> failed ~outcome:"failed" f))

let reparse_program src =
  let _, prog = Typecheck.check (Parser.of_string src) in
  prog

(* the annotated program's outline, taken once: the impact stage diffs
   it against the baseline's and a served job returns it *)
let outline_of st annotated =
  match st.outline with
  | Some o -> o
  | None ->
      let o = Analysis.Semdiff.outline annotated in
      st.outline <- Some o;
      o

(* ------------------------------------------------------------------ *)
(* Verdict synthesis                                                   *)
(* ------------------------------------------------------------------ *)

(* The one verdict rule.  The first failed stage decides, unless the
   proofs already produced evidence (then it degrades); failed lemmas
   fail the run; a degradation absorbed by resilience (infeasible VC
   generation, prover timeouts, uncertified steps) degrades it; residual
   VCs leave it conditional. *)
let synthesize st : verdict =
  let impl = st.impl in
  let residual = match impl with Some r -> r.Implementation_proof.ip_residual | None -> 0 in
  let timed_out = match impl with Some r -> r.Implementation_proof.ip_timed_out | None -> 0 in
  let failed_lemmas = List.filter (fun (_, holds, _) -> not holds) st.lemmas in
  let first_failure =
    List.rev st.statuses
    |> List.find_map (fun (s, status) ->
           match status with St_failed f -> Some (s, f) | _ -> None)
  in
  match first_failure with
  | Some (s, f) ->
      if impl <> None && CK.stage_index s > CK.stage_index CK.S_impl then
        (* the proofs produced evidence before the fault: degrade *)
        Degraded
          {
            dg_stage = CK.stage_name s;
            dg_fault = f;
            dg_residual = residual;
            dg_timed_out = timed_out;
            dg_lemmas_failed = List.length failed_lemmas;
          }
      else Failed f
  | None -> (
      match failed_lemmas with
      | (name, _, reason) :: _ ->
          Failed
            (Fault.Lemma
               {
                 lemma = name;
                 reason =
                   Printf.sprintf "%d implication lemma(s) do not hold (first: %s)"
                     (List.length failed_lemmas) reason;
               })
      | [] -> (
          match List.rev st.degradations with
          | (stage_name, f) :: _ ->
              Degraded
                {
                  dg_stage = stage_name;
                  dg_fault = f;
                  dg_residual = residual;
                  dg_timed_out = timed_out;
                  dg_lemmas_failed = 0;
                }
          | [] ->
              if residual = 0 && timed_out = 0 then Verified
              else Conditionally_verified (residual + timed_out)))

(* ------------------------------------------------------------------ *)
(* Analysis gate and carry planning                                    *)
(* ------------------------------------------------------------------ *)

(* The flow-analysis gate between annotation and the proof:
   error-severity diagnostics refuse the program before any proof is
   attempted. *)
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

(* Change-impact planning against a baseline: the baseline's outline is
   diffed against the annotated program's, the per-VC summaries supply
   the digest sets for [Impact.refine] and the carry table.  Yields the
   audit and the carry function.  Baseline verdicts with unknown status
   strings demote to a note and a re-prove — a stale or mangled baseline
   must never fail a job that would verify from cold. *)
let plan_carry st env annotated (b : Implementation_proof.baseline) =
  let open Implementation_proof in
  let plan =
    Analysis.Impact.compute ~old_o:b.vb_outline ~new_o:(outline_of st annotated)
      annotated
  in
  (* VC-digest refinement: regenerate under the budget the proof uses
     (the memo serves the reports and their digests) and escalate any
     carried subprogram whose obligations drifted from the baseline's *)
  let current = Vcgen.vc_digests (Vcgen.generate env annotated) in
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
          match parse_status s.vs_status with
          | None -> if s.vs_status <> "timed-out" then incr dropped
          | Some status ->
              Hashtbl.replace carry_tbl
                (s.vs_sub ^ "|" ^ s.vs_name ^ "|" ^ s.vs_digest)
                (status, s.vs_attempts, s.vs_time))
        (Option.value ~default:[] (M.find_opt sub by_sub)))
    plan.Analysis.Impact.pl_carried;
  if !dropped > 0 then
    note st "impact: %d baseline verdict(s) had unknown status; re-proving them"
      !dropped;
  note st "impact: %d subprogram(s) re-prove, %d carried (%d VC verdict(s))"
    (List.length plan.Analysis.Impact.pl_impacted)
    (List.length plan.Analysis.Impact.pl_carried)
    (Hashtbl.length carry_tbl);
  let carry (vc : Logic.Formula.vc) digest =
    match
      Hashtbl.find_opt carry_tbl
        (vc.Logic.Formula.vc_sub ^ "|" ^ vc.Logic.Formula.vc_name ^ "|" ^ digest)
    with
    | None -> None
    | Some (status, attempts, time) ->
        Some
          { vr_vc = vc; vr_status = status; vr_attempts = attempts;
            vr_time = time; vr_cached = true }
  in
  let audit =
    {
      CK.im_changed = Analysis.Semdiff.changed_subs plan.Analysis.Impact.pl_diff;
      im_impacted =
        List.map
          (fun (n, rs) -> (n, List.map Analysis.Impact.reason_name rs))
          plan.Analysis.Impact.pl_impacted;
      im_carried = plan.Analysis.Impact.pl_carried;
      im_carried_vcs = Hashtbl.length carry_tbl;
      (* only the checkpoint reads the JSON *)
      im_json = (if st.run_dir = None then "" else Analysis.Impact.to_json plan);
    }
  in
  (audit, carry)

(* ------------------------------------------------------------------ *)
(* The stages                                                          *)
(* ------------------------------------------------------------------ *)

let certify_config_of st =
  if not st.cfg.oc_certify then None
  else
    Some
      { (Refactor.Certify.default_config ()) with Refactor.Certify.cf_jobs = st.cfg.oc_jobs }

let stage_refactor st (cs : Pipeline.case_study) =
  stage st CK.S_refactor
    ~from_ckpt:(fun () ->
      (* incremental runs reuse the baseline's refactoring wholesale —
         the edit under analysis happens after annotation, so re-deriving
         the refactored program would only burn the wall-clock the
         incremental mode exists to save *)
      match st.baseline.b_refactor with
      | Some (CK.P_refactor { pr_final_src; pr_steps; pr_certificates; _ } as p)
        -> (
          match Fault.guard (fun () -> reparse_program pr_final_src) with
          | Ok final ->
              save_checkpoint st CK.S_refactor (fun () -> p);
              Some (final, pr_steps, pr_certificates, None)
          | Error _ ->
              note st "baseline refactor checkpoint did not reparse; running full";
              None)
      | _ -> (
          match load_checkpoint st CK.S_refactor with
          | Some (CK.P_refactor { pr_final_src; pr_steps; pr_certificates; _ })
            ->
              Option.map
                (fun p -> (p, pr_steps, pr_certificates, None))
                (Fault.guard (fun () -> reparse_program pr_final_src)
                |> Result.to_option)
          | _ -> None))
    ~body:(fun () ->
      let certify = certify_config_of st in
      let stages, history = cs.Pipeline.cs_refactor ?certify () in
      let final =
        match List.rev stages with
        | (_, p) :: _ -> p
        | [] -> invalid_arg "Orchestrator: refactoring produced no stages"
      in
      let steps = Refactor.History.step_count history in
      let certs = Refactor.History.certificates history in
      save_checkpoint st CK.S_refactor (fun () ->
          CK.P_refactor
            {
              pr_final_src = Pretty.program_to_string final;
              pr_steps = steps;
              pr_summary = Fmt.str "%a" Refactor.History.pp_summary history;
              pr_certificates = certs;
            });
      (final, steps, certs, Some (Refactor.History.certification_stats history)))

(* The certification gate: every refactoring step must carry a
   certificate, and none may be refuted.  A live certified run raises
   {!Refactor.Certify.Refutation} inside the refactor stage already; this
   stage re-checks resumed checkpoints and turns [Unknown] certificates
   into a degradation rather than silent acceptance. *)
let stage_certify st ~steps ~certs ~stats =
  stage st CK.S_certify
    ~from_ckpt:(fun () ->
      match st.baseline.b_certify with
      | Some (CK.P_certify { pc_audit; _ } as p) ->
          save_checkpoint st CK.S_certify (fun () -> p);
          Some pc_audit
      | _ -> (
          match load_checkpoint st CK.S_certify with
          | Some (CK.P_certify { pc_audit; _ }) -> Some pc_audit
          | _ -> None))
    ~body:(fun () ->
      if List.length certs < steps then
        raise
          (Fault.Fault
             (Fault.Certification
                {
                  cert_step = "<all>";
                  cert_reason =
                    Printf.sprintf
                      "only %d of %d steps carry a certificate (refactoring \
                       checkpoint from an uncertified run?)"
                      (List.length certs) steps;
                }));
      (match
         List.find_opt
           (fun (_, _, c) ->
             match c with Refactor.Certify.Refuted _ -> true | _ -> false)
           certs
       with
      | Some (_, name, Refactor.Certify.Refuted cx) ->
          raise
            (Fault.Fault
               (Fault.Certification
                  {
                    cert_step = name;
                    cert_reason = Refactor.Certify.counterexample_to_string cx;
                  }))
      | _ -> ());
      let audit = Refactor.Certify.audit certs in
      (match
         List.find_opt
           (fun (_, _, c) ->
             match c with Refactor.Certify.Unknown _ -> true | _ -> false)
           certs
       with
      | Some (_, name, Refactor.Certify.Unknown why) ->
          degrade st CK.S_certify
            (Fault.Certification
               {
                 cert_step = name;
                 cert_reason =
                   Printf.sprintf "%d step(s) could not be certified (first: %s)"
                     audit.Refactor.Certify.au_unknown why;
               })
      | _ -> ());
      let stats =
        Option.value stats ~default:Refactor.Certify.zero_stats
      in
      save_checkpoint st CK.S_certify (fun () ->
          CK.P_certify { pc_audit = audit; pc_stats = stats });
      audit)

(* [program ()] yields the program to check: the case study's annotated
   refactoring (or the edited baseline), or a served job's source *)
let stage_annotate st program =
  stage st CK.S_annotate
    ~from_ckpt:(fun () ->
      (* a resumed incremental run must still apply the edit, so the
         baseline path below (in the body) handles both cases *)
      match (st.baseline.b_annotate, load_checkpoint st CK.S_annotate) with
      | None, Some (CK.P_annotate { pa_src }) ->
          Fault.guard (fun () -> Typecheck.check (Parser.of_string pa_src))
          |> Result.to_option
      | _ -> None)
    ~body:(fun () ->
      let env, annotated = Typecheck.check (program ()) in
      save_checkpoint st CK.S_annotate (fun () ->
          CK.P_annotate { pa_src = Pretty.program_to_string annotated });
      (env, annotated))

let stage_analyze st env annotated =
  stage st CK.S_analyze
    ~from_ckpt:(fun () ->
      match load_checkpoint st CK.S_analyze with
      | Some (CK.P_analyze an) -> Some an
      | _ -> None)
    ~body:(fun () ->
      let an = Analysis.Examiner.analyze env annotated in
      analysis_gate an;
      save_checkpoint st CK.S_analyze (fun () -> CK.P_analyze an);
      an)

(* Change-impact planning (incremental runs only): the baseline's
   outline and per-VC summaries go through {!plan_carry}; this stage adds
   the audit, its checkpoint, and the [oc_carry = false] reference mode
   that plans but carries nothing.  Impact planning is an optimisation,
   not a gate: a missing or unusable baseline piece, or a fault while
   planning, becomes a note and a full re-prove — never a fault. *)
let stage_impact st env annotated =
  stage st CK.S_impact
    ~from_ckpt:(fun () -> None)  (* cheap and carry isn't serialisable *)
    ~body:(fun () ->
      match (st.baseline.b_outline, st.baseline.b_results) with
      | None, _ ->
          note st "impact: baseline annotate checkpoint missing; full re-prove";
          None
      | _, None ->
          note st "impact: baseline proof checkpoint missing; full re-prove";
          None
      | Some vb_outline, Some vb_results -> (
          match
            Fault.guard (fun () ->
                plan_carry st env annotated { Implementation_proof.vb_outline; vb_results })
          with
          | Error fault ->
              note st "impact: planning failed (%s); full re-prove"
                (Fault.describe fault);
              None
          | Ok (audit, carry) ->
              save_checkpoint st CK.S_impact (fun () -> CK.P_impact audit);
              Some (audit, if st.cfg.oc_carry then Some carry else None)))

let stage_impl st ~discharge ?carry env annotated =
  stage st CK.S_impl
    ~from_ckpt:(fun () ->
      match load_checkpoint st CK.S_impl with
      | Some (CK.P_impl report) ->
          st.summaries <-
            List.map Implementation_proof.summarize report.Implementation_proof.ip_results;
          Some report
      | _ -> None)
    ~body:(fun () ->
      let report, summaries =
        Implementation_proof.run_summarized ~filter_vcs:st.cfg.oc_hooks.h_vcs
          ~give_up:(fun () -> global_expired st)
          ?discharge ?carry ?deadline_s:st.cfg.oc_vc_deadline_s
          ~max_steps:st.cfg.oc_max_steps
          ~jobs:st.cfg.oc_jobs ?cache:(Lazy.force st.cache) env annotated
      in
      st.summaries <- summaries;
      (match report.Implementation_proof.ip_cache_hits with
      | 0 -> ()
      | hits ->
          note st "proof cache: %d of %d VC(s) replayed" hits
            report.Implementation_proof.ip_total);
      save_checkpoint st CK.S_impl (fun () -> CK.P_impl report);
      report)

let stage_extract st (cs : Pipeline.case_study) env annotated =
  stage st CK.S_extract
    ~from_ckpt:(fun () ->
      match load_checkpoint st CK.S_extract with
      | Some (CK.P_extract { px_theory; px_match }) -> Some (px_theory, px_match)
      | _ -> None)
    ~body:(fun () ->
      let extracted = Extract.extract_program env annotated in
      let match_result =
        Specl.Match_ratio.compare ~synonyms:cs.Pipeline.cs_synonyms
          ~original:cs.Pipeline.cs_original_spec ~extracted ()
      in
      if Telemetry.enabled () then begin
        Telemetry.gauge "match_ratio" match_result.Specl.Match_ratio.mr_ratio;
        Telemetry.instant "match_ratio"
          ~attrs:
            [
              ("block", Telemetry.S cs.Pipeline.cs_name);
              ("ratio", Telemetry.F match_result.Specl.Match_ratio.mr_ratio);
            ]
      end;
      save_checkpoint st CK.S_extract (fun () ->
          CK.P_extract { px_theory = extracted; px_match = match_result });
      (extracted, match_result))

let stage_implication st (cs : Pipeline.case_study) extracted =
  stage st CK.S_implication
    ~from_ckpt:(fun () ->
      match load_checkpoint st CK.S_implication with
      | Some (CK.P_implication { pi_lemmas }) -> Some pi_lemmas
      | _ -> None)
    ~body:(fun () ->
      let lemmas = st.cfg.oc_hooks.h_lemmas (cs.Pipeline.cs_lemmas ~extracted) in
      let result = Implication.run ~jobs:st.cfg.oc_jobs lemmas in
      let summaries =
        List.map
          (fun ((l : Implication.lemma), outcome) ->
            match outcome with
            | Implication.Holds m ->
                (l.Implication.lm_name, true, Fmt.str "%a" Implication.pp_method m)
            | Implication.Fails reason -> (l.Implication.lm_name, false, reason))
          result.Implication.im_lemmas
      in
      save_checkpoint st CK.S_implication (fun () ->
          CK.P_implication { pi_lemmas = summaries });
      summaries)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* The implementation-proof spine every run shares, after annotation:
   analyze? → impact? → implementation proof.  Infeasible VC generation
   and prover timeouts are absorbed as degradations. *)
let prove_spine st env annotated =
  let* () =
    if st.cfg.oc_analyze then
      Result.map (fun an -> st.analysis <- Some an) (stage_analyze st env annotated)
    else Ok ()
  in
  (* clean analysis pre-discharges exception-freedom VCs for the ladder *)
  let discharge =
    if st.cfg.oc_analyze then Some Analysis.Discharge.vc_discharged else None
  in
  let* carry =
    if not st.incremental then Ok None
    else
      Result.map
        (function
          | Some (audit, carry) ->
              st.impact <- Some audit;
              carry
          | None -> None)
        (stage_impact st env annotated)
  in
  let* impl = stage_impl st ~discharge ?carry env annotated in
  st.impl <- Some impl;
  (match impl.Implementation_proof.ip_infeasible with
  | Some reason -> degrade st CK.S_impl (Fault.Vc_infeasible reason)
  | None -> ());
  (match
     List.find_map
       (fun (r : Implementation_proof.vc_result) ->
         match r.Implementation_proof.vr_status with
         | Implementation_proof.Timed_out elapsed ->
             Some (r.Implementation_proof.vr_vc.Logic.Formula.vc_name, elapsed)
         | _ -> None)
       impl.Implementation_proof.ip_results
   with
  | Some (vc, elapsed) -> degrade st CK.S_impl (Fault.Prover_timeout { vc; elapsed })
  | None -> ());
  Ok ()

let start ~cfg ~case ~run_dir ~resume ~incremental ~baseline ~cache ~on_stage =
  {
    cfg;
    case;
    run_dir;
    resume_run = resume;
    incremental;
    global_deadline = Logic.Clock.deadline cfg.oc_global_deadline_s;
    baseline;
    cache;
    on_stage;
    t0 = Logic.Clock.now ();
    root_span =
      Telemetry.start_span ~cat:Telemetry.cat_pipeline
        ~attrs:[ ("case", Telemetry.S case); ("resume", Telemetry.B resume) ]
        "orchestrated-run";
    vcgen_memo0 = Vcgen.memo_stats ();
    statuses = [];
    notes = [];
    degradations = [];
    steps = 0;
    analysis = None;
    certify = None;
    impact = None;
    impl = None;
    summaries = [];
    outline = None;
    match_result = None;
    lemmas = [];
  }

(* Close a run: mark unreached stages, decide the verdict, publish the
   run's VC-generation memo events, persist telemetry.  A stage disabled
   by config is absent from the report rather than skipped (skipped means
   cut off by an earlier fault). *)
let finish st ~expected =
  let statuses =
    List.map
      (fun s ->
        match List.assoc_opt s st.statuses with
        | Some status -> (s, status)
        | None -> (s, St_skipped))
      expected
  in
  let verdict = synthesize st in
  let verdict_name =
    match verdict with
    | Verified -> "verified"
    | Conditionally_verified _ -> "conditionally-verified"
    | Degraded _ -> "degraded"
    | Failed _ -> "failed"
  in
  (* the analyze, impact and proof stages all generate VCs; the memo's
     events over the run sit next to the memos the refactoring,
     certification and implication proof publish *)
  if Telemetry.enabled () then
    Telemetry.count_memos
      [ ("vcgen_memo", Memo.diff (Vcgen.memo_stats ()) st.vcgen_memo0) ];
  Telemetry.finish_span st.root_span ~attrs:[ ("verdict", Telemetry.S verdict_name) ];
  (match st.run_dir with
  | Some dir when Telemetry.enabled () -> (
      match CK.save_telemetry ~dir with
      | Ok () -> ()
      | Error e -> note st "telemetry write failed: %s" e)
  | _ -> ());
  {
    o_case = st.case;
    o_stages = statuses;
    o_refactor_steps = st.steps;
    o_analysis = st.analysis;
    o_certify = st.certify;
    o_impact = st.impact;
    o_impl = st.impl;
    o_results = st.summaries;
    o_outline = st.outline;
    o_match = st.match_result;
    o_lemmas = st.lemmas;
    o_notes = List.rev st.notes;
    o_verdict = verdict;
    o_attempts =
      (match st.impl with Some r -> r.Implementation_proof.ip_attempts | None -> 0);
    o_time = Logic.Clock.elapsed st.t0;
  }

let expected_stages (cfg : config) ~incremental ~case_study =
  List.filter
    (function
      | CK.S_analyze -> cfg.oc_analyze
      | CK.S_certify -> case_study && cfg.oc_certify
      | CK.S_impact -> incremental
      | CK.S_refactor | CK.S_extract | CK.S_implication -> case_study
      | CK.S_annotate | CK.S_impl -> true)
    CK.all_stages

let run ?(resume = false) ?(config = default_config) (cs : Pipeline.case_study) : report =
  (* snapshot the baseline before touching any file: the run directory
     may BE the baseline directory, and stages overwrite as they go *)
  let baseline =
    match config.oc_baseline with
    | None -> no_baseline
    | Some dir ->
        let get stage =
          match CK.load ~dir ~case:cs.Pipeline.cs_name stage with
          | Some (Ok p) -> Some p
          | Some (Error _) | None -> None
        in
        {
          b_refactor = get CK.S_refactor;
          b_certify = get CK.S_certify;
          b_annotate =
            (match get CK.S_annotate with
            | Some (CK.P_annotate { pa_src }) -> Some pa_src
            | _ -> None);
          b_outline = None;  (* taken by the annotate stage *)
          b_results =
            (match get CK.S_impl with
            | Some (CK.P_impl r) ->
                Some (List.map Implementation_proof.summarize
                        r.Implementation_proof.ip_results)
            | _ -> None);
        }
  in
  (* a fresh run must not mix its checkpoints with a previous run's —
     except in incremental mode when run dir and baseline coincide, where
     clearing would destroy the baseline we just came for *)
  (match (resume, config.oc_run_dir) with
  | false, Some dir when config.oc_baseline <> Some dir -> CK.clear ~dir
  | _ -> ());
  (* a resumed run replays the interrupted run's trace first, so the
     persisted trace covers the whole logical run *)
  (match (resume, config.oc_run_dir) with
  | true, Some dir when Telemetry.enabled () -> (
      match CK.load_telemetry ~dir with
      | Some (Ok events) -> Telemetry.ingest events
      | Some (Error _) | None -> ())
  | _ -> ());
  let incremental = config.oc_baseline <> None in
  let st =
    start ~cfg:config ~case:cs.Pipeline.cs_name ~run_dir:config.oc_run_dir ~resume
      ~incremental ~baseline
      ~cache:(lazy (Option.map (fun dir -> Farm.Cache.open_ ~dir) (cache_dir_of config)))
      ~on_stage:(fun _ _ -> ())
  in
  ignore
    (let* final, steps, certs, cert_stats = stage_refactor st cs in
     st.steps <- steps;
     let* () =
       if config.oc_certify then
         Result.map
           (fun a -> st.certify <- Some a)
           (stage_certify st ~steps ~certs ~stats:cert_stats)
       else Ok ()
     in
     let* env, annotated =
       stage_annotate st (fun () ->
           match st.baseline.b_annotate with
           | Some pa_src ->
               (* incremental: the baseline's annotated program, checked,
                  is the starting point and the impact stage's outline;
                  [oc_edit] is the change under analysis *)
               let _, base = Typecheck.check (Parser.of_string pa_src) in
               st.baseline <-
                 { st.baseline with b_outline = Some (Analysis.Semdiff.outline base) };
               (Option.value ~default:Fun.id config.oc_edit) base
           | None -> cs.Pipeline.cs_annotate final)
     in
     let* () = prove_spine st env annotated in
     let* extracted, match_result = stage_extract st cs env annotated in
     st.match_result <- Some match_result;
     Result.map (fun lemmas -> st.lemmas <- lemmas) (stage_implication st cs extracted));
  finish st ~expected:(expected_stages config ~incremental ~case_study:true)

let resume ?config cs = run ~resume:true ?config cs

let run_job ?(config = default_config) ?(on_stage = fun _ _ -> ()) ?cache
    ?baseline ~source () =
  let incremental = baseline <> None in
  let st =
    start ~cfg:config ~case:"job" ~run_dir:None ~resume:false ~incremental
      ~baseline:
        (match baseline with
        | None -> no_baseline
        | Some (b : Implementation_proof.baseline) ->
            { no_baseline with
              b_outline = Some b.Implementation_proof.vb_outline;
              b_results = Some b.Implementation_proof.vb_results })
      ~cache:(Lazy.from_val cache) ~on_stage
  in
  ignore
    (let* env, annotated =
       stage_annotate st (fun () -> Parser.of_string source)
     in
     ignore (outline_of st annotated);
     prove_spine st env annotated);
  finish st ~expected:(expected_stages config ~incremental ~case_study:false)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_verdict ppf = function
  | Verified -> Fmt.string ppf "VERIFIED"
  | Conditionally_verified n ->
      Fmt.pf ppf "CONDITIONALLY VERIFIED (%d VCs left for interactive proof)" n
  | Degraded d ->
      Fmt.pf ppf
        "DEGRADED at %s: %a (%d residual, %d timed out, %d lemmas failed)"
        d.dg_stage Fault.pp d.dg_fault d.dg_residual d.dg_timed_out d.dg_lemmas_failed
  | Failed f -> Fmt.pf ppf "FAILED: %a" Fault.pp f

let pp_status ppf = function
  | St_ok { st_from_checkpoint = true; _ } -> Fmt.string ppf "ok (from checkpoint)"
  | St_ok { st_time; _ } -> Fmt.pf ppf "ok (%.1fs)" st_time
  | St_failed f -> Fmt.pf ppf "failed: %a" Fault.pp f
  | St_skipped -> Fmt.string ppf "skipped"

let pp_report ppf r =
  Fmt.pf ppf "@[<v>orchestrated run: %s@," r.o_case;
  List.iter
    (fun (s, status) ->
      Fmt.pf ppf "  %-22s %a@," (CK.stage_name s) pp_status status)
    r.o_stages;
  (match r.o_certify with
  | Some a ->
      Fmt.pf ppf "certification: %d step(s): %d certified, %d refuted, %d unknown@,"
        a.Refactor.Certify.au_steps a.Refactor.Certify.au_certified
        a.Refactor.Certify.au_refuted a.Refactor.Certify.au_unknown
  | None -> ());
  (match r.o_analysis with
  | Some an ->
      Fmt.pf ppf "analysis: %d error(s), %d warning(s), %d info(s)@,"
        (Analysis.Examiner.errors an)
        (Analysis.Diag.count Analysis.Diag.Warning (Analysis.Examiner.diags an))
        (Analysis.Diag.count Analysis.Diag.Info (Analysis.Examiner.diags an))
  | None -> ());
  (match r.o_impact with
  | Some a ->
      Fmt.pf ppf
        "impact: %d changed, %d re-prove, %d carried (%d VC verdict(s))@,"
        (List.length a.CK.im_changed)
        (List.length a.CK.im_impacted)
        (List.length a.CK.im_carried) a.CK.im_carried_vcs;
      List.iter
        (fun (n, reasons) ->
          Fmt.pf ppf "  re-prove %-24s %s@," n (String.concat ", " reasons))
        a.CK.im_impacted
  | None -> ());
  (match r.o_impl with
  | Some impl -> Fmt.pf ppf "%a@," Implementation_proof.pp_report impl
  | None -> ());
  (match r.o_match with
  | Some m -> Fmt.pf ppf "structure match: %a@," Specl.Match_ratio.pp_result m
  | None -> ());
  (match r.o_lemmas with
  | [] -> ()
  | lemmas ->
      let proved = List.length (List.filter (fun (_, h, _) -> h) lemmas) in
      Fmt.pf ppf "implication: %d/%d lemmas@," proved (List.length lemmas));
  List.iter (fun n -> Fmt.pf ppf "note: %s@," n) r.o_notes;
  Fmt.pf ppf "verdict: %a (%.1fs)@]" pp_verdict r.o_verdict r.o_time
