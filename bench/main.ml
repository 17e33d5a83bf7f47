(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6, §7) and prints paper-reported vs measured values.

   Figures 2(a)-(f): metric trajectories over the 14 refactoring blocks.
   Table 1: annotation counts.
   §6.2.3: implementation-proof statistics.
   §6.2.4: implication-proof statistics.
   Tables 2/3: the seeded-defect experiment.
   Static analysis: VC pre-discharge economics (BENCH_analysis.json).
   Ablations (DESIGN.md §5): simplifier off, architectural mapping off.
   Plus Bechamel micro-benchmarks of the underlying machinery.

   Absolute numbers necessarily differ from the 2009 SPARK/PVS toolchain;
   the shapes (monotone declines, infeasibility at early blocks, detection
   splits) are the reproduction targets.  See EXPERIMENTS.md. *)

open Minispark

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* --smoke: CI mode — run only the instrumented orchestrated pipeline so
   the BENCH_*.json artifacts exist, skipping the long table/figure
   regenerations *)
let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let only = ref None

let () =
  Array.iteri
    (fun i a -> if a = "--only" && i + 1 < Array.length Sys.argv then only := Some Sys.argv.(i + 1))
    Sys.argv

let section name = Fmt.pr "@.=== %s ===@." name

let want name =
  match !only with None -> true | Some o -> String.equal o name

(* ------------------------------------------------------------------ *)
(* shared pipeline run                                                 *)
(* ------------------------------------------------------------------ *)

let snapshots_and_history = lazy (Aes.Aes_refactoring.run ())
let snapshots () = fst (Lazy.force snapshots_and_history)

let final_annotated =
  lazy
    (let s = List.nth (snapshots ()) 14 in
     let annotated = Aes.Aes_annotations.annotate s.Aes.Aes_refactoring.sn_program in
     Typecheck.check annotated)

(* ------------------------------------------------------------------ *)
(* Figure 2: per-block metric trajectories                             *)
(* ------------------------------------------------------------------ *)

(* paper-reported values where the text gives them explicitly; the
   histograms of Fig. 2 are otherwise only available as chart bars *)
let paper_loc = [ (0, 1365); (14, 412) ]
let paper_cyclo = [ (0, 2.40); (14, 1.48) ]

let fig2_metrics () =
  section "Figure 2(a)/(b): lines of code and average cyclomatic complexity";
  Fmt.pr "%-6s %-8s %-10s %-8s %-10s@." "block" "LoC" "paper-LoC" "cyclo" "paper-cyc";
  List.iter
    (fun (s : Aes.Aes_refactoring.snapshot) ->
      let m = Metrics.analyze s.Aes.Aes_refactoring.sn_program in
      let paper_l =
        match List.assoc_opt s.Aes.Aes_refactoring.sn_block paper_loc with
        | Some v -> string_of_int v
        | None -> "-"
      in
      let paper_c =
        match List.assoc_opt s.Aes.Aes_refactoring.sn_block paper_cyclo with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "-"
      in
      Fmt.pr "%-6d %-8d %-10s %-8.2f %-10s@." s.Aes.Aes_refactoring.sn_block
        m.Metrics.element.Metrics.em_lines paper_l
        m.Metrics.complexity.Metrics.cm_avg_cyclomatic paper_c)
    (snapshots ())

(* Fig 2(c)/(d)/(e): VC generation with all postconditions true *)
let strip_functional_annotations (program : Ast.program) =
  let decls =
    List.map
      (function
        | Ast.Dsub s ->
            Ast.Dsub
              {
                s with
                Ast.sub_post = None;
                sub_body =
                  Ast.map_stmts
                    (fun st ->
                      match st with
                      | Ast.For fl -> [ Ast.For { fl with Ast.for_invariants = [] } ]
                      | Ast.While wl -> [ Ast.While { wl with Ast.while_invariants = [] } ]
                      | st -> [ st ])
                    s.Ast.sub_body;
              }
        | d -> d)
      program.Ast.prog_decls
  in
  { program with Ast.prog_decls = decls }

let fig2_vcs () =
  section "Figure 2(c)/(d)/(e): analysis time, generated and simplified VC sizes";
  Fmt.pr "(postconditions set to true, as in §6.2.2; sizes in KB; '-' = infeasible)@.";
  Fmt.pr "%-6s %-10s %-12s %-12s %-8s %-10s@." "block" "time(s)" "genVC(KB)"
    "simpVC(KB)" "VCs" "maxVC(ln)";
  let budget =
    { Vcgen.default_budget with
      Vcgen.max_vc_nodes = 3_000_000;
      max_total_nodes = 12_000_000 }
  in
  List.iter
    (fun (s : Aes.Aes_refactoring.snapshot) ->
      let program = strip_functional_annotations s.Aes.Aes_refactoring.sn_program in
      let env, program = Typecheck.check program in
      let t0 = Unix.gettimeofday () in
      let report = Vcgen.generate ~budget env program in
      match report.Vcgen.r_infeasible with
      | Some _ ->
          Fmt.pr "%-6d %-10s %-12s %-12s %-8s %-10s@." s.Aes.Aes_refactoring.sn_block
            "-" "-" "-" "-" "-"
      | None ->
          let vcs = Vcgen.all_vcs report in
          (* both columns in printed bytes, so they are comparable *)
          let gen_bytes =
            List.fold_left (fun acc vc -> acc + Logic.Formula.vc_byte_size vc) 0 vcs
          in
          (* simplify those below a per-VC size cap (the rest would defeat
             the simplifier, as the paper observed) *)
          let simp_bytes =
            List.fold_left
              (fun acc vc ->
                let size = Logic.Formula.vc_byte_size vc in
                if size > 2_000_000 then acc + size
                else
                  let vc' = Logic.Simplify.simplify_vc vc in
                  acc + Logic.Formula.vc_byte_size vc')
              0 vcs
          in
          let dt = Unix.gettimeofday () -. t0 in
          Fmt.pr "%-6d %-10.2f %-12d %-12d %-8d %-10d@." s.Aes.Aes_refactoring.sn_block
            dt (gen_bytes / 1024) (simp_bytes / 1024) (List.length vcs)
            (Vcgen.max_vc_lines report))
    (snapshots ());
  Fmt.pr "paper: block 1 = 51.16 MB generated / 2.59 MB simplified, 7h23m; final = 1.90 MB / 86 KB, 1m42s@."

let fig2f () =
  section "Figure 2(f): specification structure match ratio";
  Fmt.pr "%-6s %-10s@." "block" "ratio";
  List.iter
    (fun (s : Aes.Aes_refactoring.snapshot) ->
      let sk = Extract.skeleton s.Aes.Aes_refactoring.sn_program in
      let r = Aes.Aes_implication.match_ratio ~extracted:sk in
      Fmt.pr "%-6d %5.1f%%  (%d/%d)@." s.Aes.Aes_refactoring.sn_block
        (100.0 *. r.Specl.Match_ratio.mr_ratio) r.Specl.Match_ratio.mr_matched
        r.Specl.Match_ratio.mr_total)
    (snapshots ());
  Fmt.pr "paper: 25.9%% at block 0 rising to 96.3%% at block 14@."

(* ------------------------------------------------------------------ *)
(* Table 1 and the two proofs                                          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: annotations in the implementation proof";
  let _, annotated = Lazy.force final_annotated in
  let t = Aes.Aes_annotations.annotation_lines annotated in
  Fmt.pr "%-40s %-10s %-8s@." "Type" "measured" "paper";
  Fmt.pr "%-40s %-10d %-8d@." "Preconditions" t.Aes.Aes_annotations.t1_pre_lines 8;
  Fmt.pr "%-40s %-10d %-8d@." "Postconditions" t.Aes.Aes_annotations.t1_post_lines 123;
  Fmt.pr "%-40s %-10d %-8d@." "Loop Invariants & Assertions"
    t.Aes.Aes_annotations.t1_invariant_lines 54;
  Fmt.pr "%-40s %-10d %-8d@." "Proof Functions, Proof Rules & Other"
    t.Aes.Aes_annotations.t1_other_lines 32

let impl_proof () =
  section "Implementation proof (§6.2.3)";
  let env, annotated = Lazy.force final_annotated in
  let r = Echo.Implementation_proof.run env annotated in
  Fmt.pr "%a@." Echo.Implementation_proof.pp_report r;
  Fmt.pr "paper: 306 VCs, 86.6%% auto in 145s, 15/25 functions fully automatic@."

let implication_proof () =
  section "Implication proof (§6.2.4)";
  let env, annotated = Lazy.force final_annotated in
  let extracted = Extract.extract_program env annotated in
  let mr = Aes.Aes_implication.match_ratio ~extracted in
  Fmt.pr "extracted specification: %d lines, match ratio %a@."
    (Specl.Spretty.line_count extracted) Specl.Match_ratio.pp_result mr;
  let r = Aes.Aes_implication.run ~extracted in
  Fmt.pr "lemmas discharged: %d/%d in %.1fs@." r.Echo.Implication.im_proved
    r.Echo.Implication.im_total r.Echo.Implication.im_time;
  Fmt.pr "paper: 1685-line extracted spec, 32 major lemmas, all discharged interactively@."

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: seeded defects                                      *)
(* ------------------------------------------------------------------ *)

let tables23 () =
  section "Tables 2 and 3: defect detection (15 seeded defects, two setups)";
  let t1, t2 = Defects.Experiment.run_experiment () in
  Fmt.pr "%a@." Defects.Experiment.pp_table t1;
  Fmt.pr "paper (setup 1): refactoring 4, implementation 2, implication 8, left 1@.";
  Fmt.pr "%a@." Defects.Experiment.pp_table t2;
  Fmt.pr "paper (setup 2): refactoring 4, implementation 10, implication 0, left 1@.";
  section "Extension: defects seeded into the refactored program (proofs only)";
  Fmt.pr
    "(our refactoring checks every instance, so original-program defects are mostly@.\
     caught before the proofs; this variant isolates the annotation-placement contrast)@.";
  let p1, p2 = Defects.Experiment.run_post_experiment () in
  Fmt.pr "%a@." Defects.Experiment.pp_table p1;
  Fmt.pr "%a@." Defects.Experiment.pp_table p2

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5)                                            *)
(* ------------------------------------------------------------------ *)

let ablation_simplifier () =
  section "Ablation: simplifier off (generated vs simplified VC residue)";
  let env, annotated = Lazy.force final_annotated in
  let report = Vcgen.generate env annotated in
  let vcs = Vcgen.all_vcs report in
  let raw = List.fold_left (fun a vc -> a + Logic.Formula.vc_byte_size vc) 0 vcs in
  let simplified =
    List.fold_left
      (fun a vc -> a + Logic.Formula.vc_byte_size (Logic.Simplify.simplify_vc vc))
      0 vcs
  in
  Fmt.pr "final program: %d KB raw, %d KB simplified (%.1fx reduction)@." (raw / 1024)
    (simplified / 1024)
    (float_of_int raw /. float_of_int (max 1 simplified))

let ablation_mapping () =
  section "Ablation: architectural mapping off (flat whole-cipher lemma only)";
  let env, annotated = Lazy.force final_annotated in
  let extracted = Extract.extract_program env annotated in
  (* with mapping: the lemma suite; without: only the top-level lemma *)
  let all = Aes.Aes_implication.lemmas ~extracted in
  let flat =
    List.filter
      (fun l ->
        List.mem l.Echo.Implication.lm_name
          [ "encrypt_block_lemma"; "decrypt_block_lemma"; "encrypt_kat_lemma" ])
      all
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = Echo.Implication.run f in
    (r, Unix.gettimeofday () -. t0)
  in
  let r_all, t_all = time all in
  let r_flat, t_flat = time flat in
  Fmt.pr
    "with architectural mapping: %d lemmas (%d byte-level decided exhaustively), %.2fs@."
    r_all.Echo.Implication.im_total
    (List.length
       (List.filter
          (fun (_, o) ->
            match o with Echo.Implication.Holds (Echo.Implication.Exhaustive _) -> true | _ -> false)
          r_all.Echo.Implication.im_lemmas))
    t_all;
  Fmt.pr
    "flat comparison only: %d lemmas, %.2fs — no exhaustive coverage of the \
     byte-level algebra, and a failure localises nowhere@."
    r_flat.Echo.Implication.im_total t_flat

let ablation_order () =
  section "Ablation: refactoring order (rerolling alone vs full sequence)";
  let partial, _ = Aes.Aes_refactoring.run ~upto:1 () in
  let s1 = List.nth partial 1 in
  let program = strip_functional_annotations s1.Aes.Aes_refactoring.sn_program in
  let env, program = Typecheck.check program in
  let budget =
    { Vcgen.default_budget with Vcgen.max_vc_nodes = 3_000_000; max_total_nodes = 12_000_000 }
  in
  let report = Vcgen.generate ~budget env program in
  (match report.Vcgen.r_infeasible with
  | Some _ -> Fmt.pr "block 1 alone: VC generation still infeasible@."
  | None ->
      Fmt.pr "block 1 alone: %d KB of VCs@."
        (Vcgen.bytes_of_nodes (Vcgen.total_nodes report) / 1024));
  Fmt.pr "the paper's heuristics (§5.2) put structural/global transformations first@."

(* ------------------------------------------------------------------ *)
(* Orchestrated pipeline: per-stage timing + retry counts as JSON       *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* short revision for the bench-history record: CI exposes GITHUB_SHA,
   local runs ask git, and a tarball build degrades to "unknown" *)
let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when String.length s >= 7 -> String.sub s 0 7
  | Some s when s <> "" -> s
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with _ -> "unknown")

(* serve-stream rates measured by serve_json, folded into the history
   record so Profile.detect_regressions watches the service path too;
   (0, 0) when the serve section has not run — of_json's back-compat
   default, which the detector's warm-up logic already tolerates *)
let serve_rates = ref (0.0, 0.0)

(* attribution artifacts distilled from one instrumented pipeline run:
   per-category refactor time, a flamegraph, and the history record that
   feeds the rolling-baseline regression gate *)
let profile_artifacts events (r : Echo.Orchestrator.report) =
  (* BENCH_refactor.json: per-transformation-category seconds, checked
     against the refactor stage span so unattributed time is visible *)
  let refactor_stage_seconds =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Telemetry.Span { sp_cat = cat; sp_name = name; sp_dur = dur; _ }
          when cat = Telemetry.cat_stage && name = "refactor" ->
            acc +. dur
        | _ -> acc)
      0.0 events
  in
  (* the per-block KAT gate is refactor-stage work that is not a
     transformation; it has its own span and its own line here, so the
     category sums plus the gate account for the whole stage *)
  let kat_gate_seconds =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Telemetry.Span { sp_cat = cat; sp_name = name; sp_dur = dur; _ }
          when cat = "gate" && name = "kat-gate" ->
            acc +. dur
        | _ -> acc)
      0.0 events
  in
  let cats = Profile.refactor_categories events in
  let cats_total = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 cats in
  let coverage_pct =
    if refactor_stage_seconds <= 0.0 then 0.0
    else 100.0 *. cats_total /. refactor_stage_seconds
  in
  let attributed_pct =
    if refactor_stage_seconds <= 0.0 then 0.0
    else 100.0 *. (cats_total +. kat_gate_seconds) /. refactor_stage_seconds
  in
  (* the remainder is loop overhead, snapshotting and history bookkeeping
     between steps; an explicit bucket keeps the accounting closed so the
     CI band on attributed_pct can be tight without hiding drift *)
  let other_seconds =
    Float.max 0.0 (refactor_stage_seconds -. cats_total -. kat_gate_seconds)
  in
  let cat_obj (c, steps, secs) =
    Printf.sprintf {|    {"category": "%s", "steps": %d, "seconds": %.4f}|}
      (json_escape c) steps secs
  in
  let steps_per_sec =
    if refactor_stage_seconds > 0.0 then
      float_of_int r.Echo.Orchestrator.o_refactor_steps /. refactor_stage_seconds
    else 0.0
  in
  (* the PR5 profiling run clocked the sequential refactor stage at
     26.69s; the sharing/incremental/memoization work is gated against
     that number (>= 5x, stage <= 5.4s) *)
  let pr5_baseline_seconds = 26.6889 in
  let speedup_vs_pr5 =
    if refactor_stage_seconds > 0.0 then
      pr5_baseline_seconds /. refactor_stage_seconds
    else 0.0
  in
  let json =
    Printf.sprintf
      {|{
  "case": "%s",
  "refactor_stage_seconds": %.4f,
  "steps_per_sec": %.2f,
  "pr5_baseline_seconds": %.4f,
  "speedup_vs_pr5": %.2f,
  "categories": [
%s
  ],
  "categories_total_seconds": %.4f,
  "kat_gate_seconds": %.4f,
  "other_seconds": %.4f,
  "coverage_pct": %.1f,
  "attributed_pct": %.1f
}
|}
      (json_escape r.Echo.Orchestrator.o_case)
      refactor_stage_seconds steps_per_sec pr5_baseline_seconds speedup_vs_pr5
      (String.concat ",\n" (List.map cat_obj cats))
      cats_total kat_gate_seconds other_seconds coverage_pct attributed_pct
  in
  let oc = open_out "BENCH_refactor.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr
    "wrote BENCH_refactor.json (%d categories %.1f%%, + KAT gate = %.1f%% of refactor stage)@."
    (List.length cats) coverage_pct attributed_pct;
  (match Profile.write_folded ~path:"BENCH_flame.folded" events with
  | Ok () -> Fmt.pr "wrote BENCH_flame.folded@."
  | Error e -> Fmt.epr "warning: BENCH_flame.folded: %s@." e);
  (* bench history: append this run, then compare against the rolling
     baseline — warn-only, so a slow container never fails the build *)
  let stage_seconds =
    List.filter_map
      (fun (s, status) ->
        match status with
        | Echo.Orchestrator.St_ok { st_time; _ } ->
            Some (Echo.Checkpoint.stage_name s, st_time)
        | _ -> None)
      r.Echo.Orchestrator.o_stages
  in
  let vcs_per_sec =
    match r.Echo.Orchestrator.o_impl with
    | Some ip when ip.Echo.Implementation_proof.ip_time > 0.0 ->
        float_of_int ip.Echo.Implementation_proof.ip_total
        /. ip.Echo.Implementation_proof.ip_time
    | _ -> 0.0
  in
  let record =
    {
      Profile.h_timestamp = Unix.time ();
      h_git_rev = git_rev ();
      h_cores = Domain.recommended_domain_count ();
      h_total_seconds = r.Echo.Orchestrator.o_time;
      h_stage_seconds = stage_seconds;
      h_vcs_per_sec = vcs_per_sec;
      h_steps_per_sec = steps_per_sec;
      h_serve_jobs_per_sec = fst !serve_rates;
      h_serve_p95_s = snd !serve_rates;
    }
  in
  (match Profile.append_history ~path:"BENCH_history.jsonl" record with
  | Ok () -> Fmt.pr "appended run to BENCH_history.jsonl@."
  | Error e -> Fmt.epr "warning: BENCH_history.jsonl: %s@." e);
  match Profile.load_history ~path:"BENCH_history.jsonl" with
  | Error e -> Fmt.epr "warning: BENCH_history.jsonl: %s@." e
  | Ok records -> (
      match Profile.detect_regressions records with
      | [] ->
          Fmt.pr "  no perf regressions vs rolling baseline (%d record(s) in history)@."
            (List.length records)
      | regs ->
          List.iter
            (fun rg ->
              Fmt.pr "  PERF WARNING: %s %.3f vs baseline %.3f (%+.1f%%)@."
                rg.Profile.rg_metric rg.Profile.rg_latest rg.Profile.rg_baseline
                rg.Profile.rg_delta_pct)
            regs)

let pipeline_json () =
  section "Orchestrated pipeline timing (BENCH_pipeline.json)";
  Telemetry.reset ();
  Telemetry.enable ();
  let r = Echo.Orchestrator.run Aes.Aes_echo.case_study in
  let stage_obj (s, status) =
    let name = Echo.Checkpoint.stage_name s in
    match status with
    | Echo.Orchestrator.St_ok { st_time; st_from_checkpoint } ->
        Printf.sprintf
          {|    {"name": "%s", "status": "ok", "seconds": %.3f, "from_checkpoint": %b}|}
          name st_time st_from_checkpoint
    | Echo.Orchestrator.St_failed f ->
        Printf.sprintf {|    {"name": "%s", "status": "failed", "fault": "%s"}|} name
          (json_escape (Echo.Fault.describe f))
    | Echo.Orchestrator.St_skipped ->
        Printf.sprintf {|    {"name": "%s", "status": "skipped"}|} name
  in
  let impl_obj =
    match r.Echo.Orchestrator.o_impl with
    | None -> "null"
    | Some ip ->
        let retried =
          List.length
            (List.filter
               (fun (vr : Echo.Implementation_proof.vc_result) ->
                 vr.Echo.Implementation_proof.vr_attempts > 1)
               ip.Echo.Implementation_proof.ip_results)
        in
        let max_attempts =
          List.fold_left
            (fun acc (vr : Echo.Implementation_proof.vc_result) ->
              max acc vr.Echo.Implementation_proof.vr_attempts)
            0 ip.Echo.Implementation_proof.ip_results
        in
        Printf.sprintf
          {|{"vcs": %d, "auto": %d, "hinted": %d, "residual": %d, "timed_out": %d,
     "attempts": %d, "vcs_retried": %d, "max_attempts_per_vc": %d, "seconds": %.3f}|}
          ip.Echo.Implementation_proof.ip_total ip.Echo.Implementation_proof.ip_auto
          ip.Echo.Implementation_proof.ip_hinted ip.Echo.Implementation_proof.ip_residual
          ip.Echo.Implementation_proof.ip_timed_out ip.Echo.Implementation_proof.ip_attempts
          retried max_attempts ip.Echo.Implementation_proof.ip_time
  in
  let json =
    Printf.sprintf
      {|{
  "case": "%s",
  "verdict": "%s",
  "total_seconds": %.3f,
  "prover_attempts": %d,
  "refactor_steps": %d,
  "stages": [
%s
  ],
  "implementation_proof": %s
}
|}
      (json_escape r.Echo.Orchestrator.o_case)
      (json_escape (Fmt.str "%a" Echo.Orchestrator.pp_verdict r.Echo.Orchestrator.o_verdict))
      r.Echo.Orchestrator.o_time r.Echo.Orchestrator.o_attempts
      r.Echo.Orchestrator.o_refactor_steps
      (String.concat ",\n" (List.map stage_obj r.Echo.Orchestrator.o_stages))
      impl_obj
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc json;
  close_out oc;
  (* the run's telemetry: metrics snapshot + Chrome trace *)
  (match Telemetry.write_metrics ~path:"BENCH_telemetry.json" (Telemetry.snapshot ()) with
  | Ok () -> Fmt.pr "wrote BENCH_telemetry.json@."
  | Error e -> Fmt.epr "warning: BENCH_telemetry.json: %s@." e);
  let events = Telemetry.events () in
  (match Telemetry.write_chrome_trace ~path:"BENCH_trace.json" events with
  | Ok () -> Fmt.pr "wrote BENCH_trace.json@."
  | Error e -> Fmt.epr "warning: BENCH_trace.json: %s@." e);
  Telemetry.disable ();
  profile_artifacts events r;
  Fmt.pr "%a@." Echo.Orchestrator.pp_report r;
  Fmt.pr "wrote BENCH_pipeline.json@."

(* ------------------------------------------------------------------ *)
(* Static analysis: VC pre-discharge economics as JSON                 *)
(* ------------------------------------------------------------------ *)

let analysis_json () =
  section "Static analysis pre-discharge (BENCH_analysis.json)";
  let env, annotated = Lazy.force final_annotated in
  let an = Analysis.Examiner.analyze ~vcs:true env annotated in
  let discharged_names = List.map snd an.Analysis.Examiner.ex_discharged in
  (* one baseline proof run (no discharge) prices the discharged set in
     prover seconds: what the ladder would have spent on those VCs *)
  let r = Echo.Implementation_proof.run env annotated in
  let saved, total_time =
    List.fold_left
      (fun (saved, total) (vr : Echo.Implementation_proof.vc_result) ->
        let t = vr.Echo.Implementation_proof.vr_time in
        let name = vr.Echo.Implementation_proof.vr_vc.Logic.Formula.vc_name in
        ((if List.mem name discharged_names then saved +. t else saved), total +. t))
      (0.0, 0.0) r.Echo.Implementation_proof.ip_results
  in
  let d = Analysis.Examiner.diags an in
  let total = an.Analysis.Examiner.ex_vcs_total in
  let discharged = an.Analysis.Examiner.ex_vcs_discharged in
  let pct =
    if total = 0 then 0.0 else 100.0 *. float_of_int discharged /. float_of_int total
  in
  let json =
    Printf.sprintf
      {|{
  "case": "aes-final-annotated",
  "exception_freedom_vcs": %d,
  "discharged": %d,
  "discharged_pct": %.1f,
  "sent_to_prover": %d,
  "prover_time_saved_s": %.3f,
  "total_prover_time_s": %.3f,
  "diagnostics": {"errors": %d, "warnings": %d, "infos": %d},
  "amenability_findings": %d
}
|}
      total discharged pct (total - discharged) saved total_time
      (Analysis.Diag.count Analysis.Diag.Error d)
      (Analysis.Diag.count Analysis.Diag.Warning d)
      (Analysis.Diag.count Analysis.Diag.Info d)
      (List.length an.Analysis.Examiner.ex_amen)
  in
  let oc = open_out "BENCH_analysis.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "%d/%d exception-freedom VCs discharged (%.1f%%), %.3fs of prover time saved@."
    discharged total pct saved;
  Fmt.pr "wrote BENCH_analysis.json@."

(* ------------------------------------------------------------------ *)
(* Hash-consed prover core: sequential throughput + simplify memo      *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of the sequential implementation proof on this machine at
   PR 4 (pre hash-consing), the denominator of the reported speedup. *)
let pr4_baseline_seq_s = 7.6

let prover_json () =
  section "Hash-consed prover microbenchmark (BENCH_prover.json)";
  let env, annotated = Lazy.force final_annotated in
  (* sequential prover phase, with allocation accounting *)
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = Echo.Implementation_proof.run ~jobs:1 env annotated in
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let vcs_total = r.Echo.Implementation_proof.ip_total in
  let vcs_per_sec = float_of_int vcs_total /. Float.max 1e-9 dt in
  let major_words = g1.Gc.major_words -. g0.Gc.major_words in
  let total_words =
    g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
  in
  let per_vc w = w /. float_of_int (max 1 vcs_total) in
  (* cold vs memo-warm simplification over the final program's VC set:
     cold is the raw fixpoint, warm hits the per-domain memo table that
     the proof run above has already populated *)
  let vcs = Vcgen.all_vcs (Vcgen.generate env annotated) in
  let each_term f =
    List.iter
      (fun vc ->
        List.iter (fun h -> ignore (f h)) vc.Logic.Formula.vc_hyps;
        ignore (f vc.Logic.Formula.vc_goal))
      vcs
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let t_cold = time (fun () -> each_term Logic.Simplify.simplify_nomemo) in
  each_term Logic.Simplify.simplify;
  let t_warm = time (fun () -> each_term Logic.Simplify.simplify) in
  let speedup = pr4_baseline_seq_s /. Float.max 1e-9 dt in
  Fmt.pr
    "  sequential: %.2fs for %d VCs (%.1f VCs/s), %.0f major words/VC, %.1fx vs PR4 baseline %.1fs@."
    dt vcs_total vcs_per_sec (per_vc major_words) speedup pr4_baseline_seq_s;
  Fmt.pr "  simplify: cold %.3fs, memo-warm %.3fs (%.1fx)@." t_cold t_warm
    (t_cold /. Float.max 1e-9 t_warm);
  let json =
    Printf.sprintf
      {|{
  "case": "aes-final-annotated",
  "sequential": {
    "seconds": %.3f,
    "vcs": %d,
    "auto": %d,
    "hinted": %d,
    "residual": %d,
    "timed_out": %d,
    "attempts": %d,
    "vcs_per_sec": %.2f,
    "major_words_per_vc": %.1f,
    "allocated_words_per_vc": %.1f
  },
  "simplify": {
    "cold_seconds": %.4f,
    "memo_warm_seconds": %.4f,
    "warm_speedup": %.2f
  },
  "pr4_baseline_seconds": %.3f,
  "speedup_vs_pr4": %.2f
}
|}
      dt vcs_total r.Echo.Implementation_proof.ip_auto
      r.Echo.Implementation_proof.ip_hinted r.Echo.Implementation_proof.ip_residual
      r.Echo.Implementation_proof.ip_timed_out r.Echo.Implementation_proof.ip_attempts
      vcs_per_sec (per_vc major_words) (per_vc total_words)
      t_cold t_warm
      (t_cold /. Float.max 1e-9 t_warm)
      pr4_baseline_seq_s speedup
  in
  let oc = open_out "BENCH_prover.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_prover.json@."

(* ------------------------------------------------------------------ *)
(* Proof farm: domain-scaling curve + cold/warm cache as JSON          *)
(* ------------------------------------------------------------------ *)

(* a machine-independent key for one VC's outcome: the timed-out payload
   is wall-clock and must not enter the comparison *)
let status_key (vr : Echo.Implementation_proof.vc_result) =
  let s =
    match vr.Echo.Implementation_proof.vr_status with
    | Echo.Implementation_proof.Auto -> "auto"
    | Echo.Implementation_proof.Hinted n -> Printf.sprintf "hinted:%d" n
    | Echo.Implementation_proof.Residual r -> "residual:" ^ r
    | Echo.Implementation_proof.Timed_out _ -> "timed-out"
    | Echo.Implementation_proof.Discharged -> "discharged"
  in
  (vr.Echo.Implementation_proof.vr_vc.Logic.Formula.vc_name, s)

let verdict_keys (r : Echo.Implementation_proof.report) =
  List.map status_key r.Echo.Implementation_proof.ip_results

let farm_json () =
  section "Proof farm scaling + proof cache (BENCH_farm.json)";
  (* visible core count, so consumers (CI) can tell a genuine scaling
     regression from a single-core container time-sharing its domains *)
  let visible_cores = Domain.recommended_domain_count () in
  Fmt.pr "  visible cores: %d@." visible_cores;
  let env, annotated = Lazy.force final_annotated in
  (* scaling curve: same VC set on 1, 2 and 4 domains *)
  let curve =
    List.map
      (fun jobs ->
        let t0 = Unix.gettimeofday () in
        let r = Echo.Implementation_proof.run ~jobs env annotated in
        let dt = Unix.gettimeofday () -. t0 in
        Fmt.pr "  jobs=%d: %.2fs  (%d VCs, %d auto, %d hinted)@." jobs dt
          r.Echo.Implementation_proof.ip_total r.Echo.Implementation_proof.ip_auto
          r.Echo.Implementation_proof.ip_hinted;
        (jobs, dt, r))
      [ 1; 2; 4 ]
  in
  let baseline =
    match curve with (_, _, r) :: _ -> verdict_keys r | [] -> assert false
  in
  let verdicts_identical =
    List.for_all (fun (_, _, r) -> verdict_keys r = baseline) curve
  in
  (* cold vs warm cache: a fresh directory, then a second run over it *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-bench-cache-%d" (Unix.getpid ()))
  in
  let timed_run () =
    let cache = Farm.Cache.open_ ~dir:cache_dir in
    let t0 = Unix.gettimeofday () in
    let r = Echo.Implementation_proof.run ~cache env annotated in
    (r, Unix.gettimeofday () -. t0)
  in
  let r_cold, t_cold = timed_run () in
  let r_warm, t_warm = timed_run () in
  let hit_rate =
    let h = r_warm.Echo.Implementation_proof.ip_cache_hits in
    let m = r_warm.Echo.Implementation_proof.ip_cache_misses in
    if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
  in
  let warm_identical = verdict_keys r_warm = verdict_keys r_cold in
  Fmt.pr "  cache: cold %.2fs, warm %.2fs (%d hit(s), %d miss(es), %.1f%% hit rate)@."
    t_cold t_warm r_warm.Echo.Implementation_proof.ip_cache_hits
    r_warm.Echo.Implementation_proof.ip_cache_misses hit_rate;
  let scaling_obj (jobs, dt, (r : Echo.Implementation_proof.report)) =
    (* an oversubscribed leg (more domains than visible cores) measures
       time-sharing, not scaling: it is recorded for completeness but
       flagged advisory so CI and history consumers skip it when judging
       the scaling curve *)
    Printf.sprintf
      {|    {"jobs": %d, "seconds": %.3f, "advisory": %b, "vcs": %d, "auto": %d, "hinted": %d, "residual": %d, "timed_out": %d}|}
      jobs dt (jobs > visible_cores)
      r.Echo.Implementation_proof.ip_total r.Echo.Implementation_proof.ip_auto
      r.Echo.Implementation_proof.ip_hinted r.Echo.Implementation_proof.ip_residual
      r.Echo.Implementation_proof.ip_timed_out
  in
  let json =
    Printf.sprintf
      {|{
  "case": "aes-final-annotated",
  "visible_cores": %d,
  "scaling": [
%s
  ],
  "verdicts_identical": %b,
  "cache": {
    "cold_seconds": %.3f,
    "warm_seconds": %.3f,
    "cold_hits": %d,
    "cold_misses": %d,
    "warm_hits": %d,
    "warm_misses": %d,
    "warm_hit_rate_pct": %.1f,
    "warm_verdicts_identical": %b
  }
}
|}
      visible_cores
      (String.concat ",\n" (List.map scaling_obj curve))
      verdicts_identical t_cold t_warm
      r_cold.Echo.Implementation_proof.ip_cache_hits
      r_cold.Echo.Implementation_proof.ip_cache_misses
      r_warm.Echo.Implementation_proof.ip_cache_hits
      r_warm.Echo.Implementation_proof.ip_cache_misses hit_rate warm_identical
  in
  let oc = open_out "BENCH_farm.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_farm.json@."

(* ------------------------------------------------------------------ *)
(* Certified refactoring: per-step equivalence evidence as JSON         *)
(* ------------------------------------------------------------------ *)

let certify_json () =
  section "Certified refactoring (BENCH_certify.json)";
  (* smoke keeps CI fast with a prefix of the script; the full run
     certifies all 14 blocks *)
  let upto = if smoke then Some 3 else None in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-bench-certify-%d" (Unix.getpid ()))
  in
  (* cold then warm against the same cache directory: the warm run's
     equivalence VCs come back as cache hits, pricing re-certification *)
  let certified_run () =
    let cfg =
      { (Refactor.Certify.default_config ~entries:[ "encrypt_block"; "decrypt_block" ] ()) with
        Refactor.Certify.cf_cache = Some (Farm.Cache.open_ ~dir:cache_dir) }
    in
    let t0 = Unix.gettimeofday () in
    let _, history = Aes.Aes_refactoring.run ?upto ~certify:cfg () in
    (history, Unix.gettimeofday () -. t0)
  in
  let h_cold, t_cold = certified_run () in
  let h_warm, t_warm = certified_run () in
  let certs = Refactor.History.certificates h_cold in
  let audit = Refactor.Certify.audit certs in
  let s_cold = Refactor.History.certification_stats h_cold in
  let s_warm = Refactor.History.certification_stats h_warm in
  let steps = Refactor.History.step_count h_cold in
  let per_sec dt = float_of_int steps /. Float.max 1e-9 dt in
  let hit_rate (s : Refactor.Certify.stats) =
    let h = s.Refactor.Certify.ct_cache_hits
    and m = s.Refactor.Certify.ct_cache_misses in
    if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
  in
  Fmt.pr "  %d step(s): %d certified, %d refuted, %d unknown (%d targets)@." steps
    audit.Refactor.Certify.au_certified audit.Refactor.Certify.au_refuted
    audit.Refactor.Certify.au_unknown s_cold.Refactor.Certify.ct_targets;
  Fmt.pr
    "  cold: %.2fs (%.2f steps/s; VCs %.2fs, oracle %.2fs), %d VC(s) generated, %d proved, %d oracle trial(s)@."
    t_cold (per_sec t_cold) s_cold.Refactor.Certify.ct_vc_seconds
    s_cold.Refactor.Certify.ct_oracle_seconds s_cold.Refactor.Certify.ct_vcs_generated
    s_cold.Refactor.Certify.ct_vcs_proved s_cold.Refactor.Certify.ct_oracle_trials;
  Fmt.pr
    "  warm: %.2fs (%.2f steps/s; VCs %.2fs, oracle %.2fs), cache %d hit(s) / %d miss(es) (%.1f%% hit rate)@."
    t_warm (per_sec t_warm) s_warm.Refactor.Certify.ct_vc_seconds
    s_warm.Refactor.Certify.ct_oracle_seconds s_warm.Refactor.Certify.ct_cache_hits
    s_warm.Refactor.Certify.ct_cache_misses (hit_rate s_warm);
  let run_obj (s : Refactor.Certify.stats) dt =
    let trials_per_sec =
      if s.Refactor.Certify.ct_oracle_seconds <= 0.0 then 0.0
      else
        float_of_int s.Refactor.Certify.ct_oracle_trials
        /. s.Refactor.Certify.ct_oracle_seconds
    in
    Printf.sprintf
      {|{"seconds": %.3f, "steps_per_sec": %.3f, "vc_seconds": %.3f, "oracle_seconds": %.3f, "trials_per_sec": %.1f, "cache_hits": %d, "cache_misses": %d, "hit_rate_pct": %.1f}|}
      dt (per_sec dt) s.Refactor.Certify.ct_vc_seconds
      s.Refactor.Certify.ct_oracle_seconds trials_per_sec
      s.Refactor.Certify.ct_cache_hits s.Refactor.Certify.ct_cache_misses
      (hit_rate s)
  in
  let json =
    Printf.sprintf
      {|{
  "case": "aes-refactoring-script",
  "steps": %d,
  "certified": %d,
  "refuted": %d,
  "unknown": %d,
  "targets": %d,
  "vcs_generated": %d,
  "vcs_proved": %d,
  "oracle_trials": %d,
  "cold": %s,
  "warm": %s
}
|}
      steps audit.Refactor.Certify.au_certified audit.Refactor.Certify.au_refuted
      audit.Refactor.Certify.au_unknown s_cold.Refactor.Certify.ct_targets
      s_cold.Refactor.Certify.ct_vcs_generated s_cold.Refactor.Certify.ct_vcs_proved
      s_cold.Refactor.Certify.ct_oracle_trials
      (run_obj s_cold t_cold) (run_obj s_warm t_warm)
  in
  let oc = open_out "BENCH_certify.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_certify.json@."

(* ------------------------------------------------------------------ *)
(* Change-impact analysis: incremental re-verification economics       *)
(* ------------------------------------------------------------------ *)

(* the synthetic one-subprogram edit the CI gate is built on: a true
   assert prepended to the body — changes the body digest and adds one
   trivial VC while leaving every contract and verdict class alone *)
let impact_edit_sub = "shift_rows"

let impact_benign_edit prog =
  Ast.update_sub prog impact_edit_sub (fun sp ->
      { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body })

let impact_json () =
  section "Change-impact incremental re-verification (BENCH_impact.json)";
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-bench-impact-%s-%d" name (Unix.getpid ()))
  in
  let base_dir = tmp "base" and ref_dir = tmp "ref" and incr_dir = tmp "incr" in
  (* ECHO_JOBS lets each CI matrix leg exercise its own farm width;
     unset, follow the visible-core cap rather than a hard-coded 4 *)
  let jobs =
    match Sys.getenv_opt "ECHO_JOBS" with
    | Some s ->
        (try max 1 (int_of_string (String.trim s))
         with _ -> Farm.Pool.default_jobs ())
    | None -> Farm.Pool.default_jobs ()
  in
  let timed config =
    let t0 = Unix.gettimeofday () in
    let r = Echo.Orchestrator.run ~config Aes.Aes_echo.case_study in
    (r, Unix.gettimeofday () -. t0)
  in
  (* 1. the cold full run: pristine program, fresh run directory — the
     wall clock the incremental run is measured against *)
  let cfg_full =
    { Echo.Orchestrator.default_config with
      Echo.Orchestrator.oc_run_dir = Some base_dir;
      oc_jobs = jobs }
  in
  let r_full, t_full = timed cfg_full in
  Fmt.pr "  full (cold):        %.2fs  %a@." t_full Echo.Orchestrator.pp_verdict
    r_full.Echo.Orchestrator.o_verdict;
  (* 2. the reference run: the same edit, full re-prove (carry off) — the
     verdicts the incremental run must reproduce exactly *)
  let cfg_ref =
    { cfg_full with
      Echo.Orchestrator.oc_run_dir = Some ref_dir;
      oc_baseline = Some base_dir;
      oc_edit = Some impact_benign_edit;
      oc_carry = false }
  in
  let r_ref, t_ref = timed cfg_ref in
  Fmt.pr "  full on edited:     %.2fs  %a@." t_ref Echo.Orchestrator.pp_verdict
    r_ref.Echo.Orchestrator.o_verdict;
  (* 3. the incremental run: same edit, carry on — only the impacted VCs
     are re-proved, every other baseline verdict is carried over *)
  let cfg_incr = { cfg_ref with Echo.Orchestrator.oc_run_dir = Some incr_dir;
                   oc_carry = true } in
  let r_incr, t_incr = timed cfg_incr in
  Fmt.pr "  incremental:        %.2fs  %a@." t_incr Echo.Orchestrator.pp_verdict
    r_incr.Echo.Orchestrator.o_verdict;
  let impl r =
    match r.Echo.Orchestrator.o_impl with
    | Some ip -> ip
    | None -> failwith "impact bench: run produced no implementation proof"
  in
  let ip_incr = impl r_incr in
  let total = ip_incr.Echo.Implementation_proof.ip_total in
  let carried = ip_incr.Echo.Implementation_proof.ip_carried in
  let reproved = total - carried in
  let reproved_pct =
    if total = 0 then 0.0 else 100.0 *. float_of_int reproved /. float_of_int total
  in
  (* verdict identity: carried results keep the baseline status, so the
     per-VC (name, status) multiset must match the full-on-edited run *)
  let keys r = List.sort compare (verdict_keys (impl r)) in
  let verdicts_identical = keys r_incr = keys r_ref in
  let speedup = if t_incr <= 0.0 then 0.0 else t_full /. t_incr in
  let audit =
    match r_incr.Echo.Orchestrator.o_impact with
    | Some a -> a
    | None -> failwith "impact bench: incremental run produced no impact audit"
  in
  let changed = List.length audit.Echo.Checkpoint.im_changed in
  let impacted = List.length audit.Echo.Checkpoint.im_impacted in
  let carried_subs = List.length audit.Echo.Checkpoint.im_carried in
  Fmt.pr
    "  impact: %d changed, %d re-prove, %d carried; VCs %d/%d re-proved (%.1f%%)@."
    changed impacted carried_subs reproved total reproved_pct;
  Fmt.pr "  verdicts identical: %b; speedup vs cold full run: %.1fx@."
    verdicts_identical speedup;
  let json =
    Printf.sprintf
      {|{
  "case": "aes-one-subprogram-edit",
  "edit_sub": "%s",
  "jobs": %d,
  "subs_changed": %d,
  "impact_set_size": %d,
  "subs_carried": %d,
  "total_vcs": %d,
  "reproved_vcs": %d,
  "carried_vcs": %d,
  "reproved_pct": %.1f,
  "verdicts_identical": %b,
  "full_seconds": %.3f,
  "full_on_edited_seconds": %.3f,
  "incremental_seconds": %.3f,
  "speedup": %.1f
}
|}
      impact_edit_sub jobs changed impacted carried_subs total reproved carried
      reproved_pct verdicts_identical t_full t_ref t_incr speedup
  in
  let oc = open_out "BENCH_impact.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_impact.json@."

(* ------------------------------------------------------------------ *)
(* Echo-as-a-service: daemon job-stream economics (BENCH_serve.json)   *)
(* ------------------------------------------------------------------ *)

let serve_read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let serve_example name =
  let candidates =
    [ Filename.concat "examples/programs" name;
      Filename.concat "../examples/programs" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> serve_read_file p
  | None -> failwith ("serve bench: cannot find examples/programs/" ^ name)

(* the same benign-edit shape the impact bench uses, aimed at one of the
   stream pipeline's twelve independent stages: one subprogram's body
   digest changes, no verdict class does, and the impact set is a small
   fraction of the program's VCs *)
let serve_benign_edit src =
  let prog = Parser.of_string src in
  let prog =
    Ast.update_sub prog "mix" (fun sp ->
        { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body })
  in
  Pretty.program_to_string prog

let serve_verdict_keys (results : Echo.Verify.vc_summary list) =
  List.map
    (fun (s : Echo.Verify.vc_summary) ->
      (s.Echo.Verify.vs_sub, s.Echo.Verify.vs_name, s.Echo.Verify.vs_status))
    results
  |> List.sort compare

let serve_percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let serve_temp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-bench-serve-%s-%d" name (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let serve_json () =
  section "Echo-as-a-service job stream (BENCH_serve.json)";
  let src = serve_example "stream.mspark" in
  let edited = serve_benign_edit src in
  (* one-shot references, outside the daemon and its cache: the stream's
     verdicts must be indistinguishable from these *)
  let direct = Echo.Verify.run ~source:src () in
  let direct_edited = Echo.Verify.run ~source:edited () in
  (* the 20-job mixed stream of the acceptance gate: 1 cold + 12 warm
     duplicates + 1 incremental + 5 incremental duplicates + 1 job whose
     first worker attempt is killed mid-proof *)
  let specs =
    [ Serve.Protocol.job ~id:"cold" ~source:src () ]
    @ List.init 12 (fun i ->
          Serve.Protocol.job ~id:(Printf.sprintf "dup-%02d" (i + 1)) ~source:src ())
    @ [ Serve.Protocol.job ~id:"incr" ~source:edited ~baseline_job:"cold" () ]
    @ List.init 5 (fun i ->
          Serve.Protocol.job
            ~id:(Printf.sprintf "incr-dup-%02d" (i + 1))
            ~source:edited ~baseline_job:"cold" ())
    @ [ Serve.Protocol.job ~id:"crash" ~source:src ~fail:"crash" () ]
  in
  let dup_submissions = 17 in
  let config =
    { Serve.Daemon.default_config with
      Serve.Daemon.dc_jobs = 2;
      dc_capacity = 32;
      dc_cache_dir = Some (serve_temp_dir "cache");
      dc_state_dir = Some (serve_temp_dir "state") }
  in
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Serve.Client.with_daemon ~config (fun cl ->
        let results =
          List.map
            (fun js ->
              let t = Unix.gettimeofday () in
              match Serve.Client.run_job cl js with
              | Ok (outcome, dedup, attempts) ->
                  (js.Serve.Protocol.js_id, outcome, dedup, attempts,
                   Unix.gettimeofday () -. t)
              | Error e ->
                  failwith
                    (Printf.sprintf "serve bench: job %s rejected: %s"
                       js.Serve.Protocol.js_id e))
            specs
        in
        let stats =
          match Serve.Client.stats cl with
          | Ok st -> st
          | Error e -> failwith ("serve bench: stats after stream: " ^ e)
        in
        (results, stats))
  in
  let total_s = Unix.gettimeofday () -. t0 in
  let find id =
    let _, o, d, a, l = List.find (fun (i, _, _, _, _) -> i = id) results in
    (o, d, a, l)
  in
  let cold, _, _, _ = find "cold" in
  let incr, _, _, _ = find "incr" in
  let crash, _, crash_attempts, _ = find "crash" in
  let latencies = List.map (fun (_, _, _, _, l) -> l) results in
  let dedup_hits =
    List.length (List.filter (fun (_, _, d, _, _) -> d) results)
  in
  let hit_rate =
    if dup_submissions = 0 then 100.0
    else 100.0 *. float_of_int dedup_hits /. float_of_int dup_submissions
  in
  let jobs_per_sec =
    if total_s <= 0.0 then 0.0
    else float_of_int (List.length results) /. total_s
  in
  let vcs_proved =
    List.fold_left
      (fun acc (_, (o : Serve.Protocol.wire_outcome), dedup, _, _) ->
        if dedup then acc else acc + o.Serve.Protocol.w_total - o.Serve.Protocol.w_carried)
      0 results
  in
  let vcs_per_sec =
    if total_s <= 0.0 then 0.0 else float_of_int vcs_proved /. total_s
  in
  let p50 = serve_percentile 50.0 latencies in
  let p95 = serve_percentile 95.0 latencies in
  let identical_cold =
    serve_verdict_keys direct.Echo.Verify.vj_results
    = serve_verdict_keys cold.Serve.Protocol.w_results
  in
  let identical_incr =
    serve_verdict_keys direct_edited.Echo.Verify.vj_results
    = serve_verdict_keys incr.Serve.Protocol.w_results
  in
  let identical_crash =
    serve_verdict_keys direct.Echo.Verify.vj_results
    = serve_verdict_keys crash.Serve.Protocol.w_results
  in
  let incr_total = incr.Serve.Protocol.w_total in
  let reproved = incr_total - incr.Serve.Protocol.w_carried in
  let reproved_pct =
    if incr_total = 0 then 0.0
    else 100.0 *. float_of_int reproved /. float_of_int incr_total
  in
  (* the daemon answered a stats request after the injected crash, so it
     survived it; the worker pool is what restarted *)
  let daemon_restarts = 0 in
  Fmt.pr "  %d jobs in %.2fs (%.1f jobs/s, %d VCs proved, %.1f VCs/s)@."
    (List.length results) total_s jobs_per_sec vcs_proved vcs_per_sec;
  Fmt.pr "  latency p50 %.3fs p95 %.3fs@." p50 p95;
  Fmt.pr "  dedup: %d/%d duplicate submissions hit (%.1f%%)@." dedup_hits
    dup_submissions hit_rate;
  Fmt.pr "  verdict identity vs one-shot: cold %b, incremental %b, crash-retry %b@."
    identical_cold identical_incr identical_crash;
  Fmt.pr "  incremental: %d/%d VCs re-proved (%.1f%%)@." reproved incr_total
    reproved_pct;
  Fmt.pr
    "  crash injection: %d attempt(s), %d worker crash(es), %d restart(s), daemon restarts %d@."
    crash_attempts stats.Serve.Protocol.st_worker_crashes
    stats.Serve.Protocol.st_worker_restarts daemon_restarts;
  let json =
    Printf.sprintf
      {|{
  "case": "stream-20-job-stream",
  "workers": 2,
  "jobs_submitted": %d,
  "completed": %d,
  "dup_submissions": %d,
  "dedup_hits": %d,
  "dedup_hit_rate_pct": %.1f,
  "jobs_per_sec": %.2f,
  "vcs_proved": %d,
  "vcs_per_sec": %.2f,
  "latency_p50_seconds": %.4f,
  "latency_p95_seconds": %.4f,
  "verdicts_identical_cold": %b,
  "verdicts_identical_incremental": %b,
  "verdicts_identical_crash_retry": %b,
  "incremental_total_vcs": %d,
  "incremental_reproved_vcs": %d,
  "incremental_reproved_pct": %.1f,
  "crash_job_attempts": %d,
  "worker_crashes": %d,
  "worker_restarts": %d,
  "daemon_restarts": %d,
  "total_seconds": %.3f
}
|}
      (List.length specs) stats.Serve.Protocol.st_completed dup_submissions
      dedup_hits hit_rate jobs_per_sec vcs_proved vcs_per_sec p50 p95
      identical_cold identical_incr identical_crash incr_total reproved
      reproved_pct crash_attempts stats.Serve.Protocol.st_worker_crashes
      stats.Serve.Protocol.st_worker_restarts daemon_restarts total_s
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_serve.json@.";
  serve_rates := (jobs_per_sec, p95)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the machinery                          *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let env0, prog0 = Aes.Aes_impl.checked () in
  let key = Aes.Aes_kat.key_bytes (List.hd Aes.Aes_kat.vectors) in
  let pt = Aes.Aes_kat.plaintext_bytes (List.hd Aes.Aes_kat.vectors) in
  let t_interp =
    Test.make ~name:"interp: encrypt_block (AES-128)" (Staged.stage (fun () ->
        ignore (Aes.Aes_kat.run_block env0 prog0 ~entry:"encrypt_block" ~key ~nk:4 ~input:pt)))
  in
  let sample_vc =
    lazy
      (let env, annotated = Lazy.force final_annotated in
       let report = Vcgen.generate env annotated in
       List.hd (Vcgen.all_vcs report))
  in
  let t_simplify =
    Test.make ~name:"simplify: one VC of the final program"
      (Staged.stage (fun () -> ignore (Logic.Simplify.simplify_vc (Lazy.force sample_vc))))
  in
  let t_prove =
    Test.make ~name:"prove: one VC of the final program"
      (Staged.stage (fun () -> ignore (Logic.Prover.prove_vc (Lazy.force sample_vc))))
  in
  let t_metrics =
    Test.make ~name:"metrics: analyze optimized AES"
      (Staged.stage (fun () -> ignore (Metrics.analyze prog0)))
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let results = Benchmark.all cfg [ clock ] test in
    Hashtbl.iter
      (fun name raws ->
        match
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
            clock raws
        with
        | ols -> (
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Fmt.pr "  %-44s %10.1f ns/run@." name est
            | _ -> Fmt.pr "  %-44s (no estimate)@." name)
        | exception _ -> Fmt.pr "  %-44s (analysis failed)@." name)
      results
  in
  benchmark t_interp;
  (* the sample VC is generated between the timed runs, not inside one:
     its first forcing runs the whole refactoring *)
  ignore (Lazy.force sample_vc);
  List.iter benchmark [ t_simplify; t_prove; t_metrics ]

(* ------------------------------------------------------------------ *)

let () =
  Fmt.pr "Echo verification-refactoring benchmark harness@.";
  if quick then Fmt.pr "(--quick: skipping the defect experiment)@.";
  if smoke then Fmt.pr "(--smoke: orchestrated pipeline + telemetry artifacts only)@.";
  let t0 = Unix.gettimeofday () in
  if smoke then begin
    serve_json ();
    pipeline_json ();
    analysis_json ();
    prover_json ();
    farm_json ();
    certify_json ();
    impact_json ()
  end
  else begin
    (* serve first: the daemon forks worker processes, and Unix.fork is
       forbidden once any section has spawned a farm domain *)
    if want "serve" || !only = None then serve_json ();
    if want "fig2ab" || !only = None then fig2_metrics ();
    if want "fig2cde" || !only = None then fig2_vcs ();
    if want "fig2f" || !only = None then fig2f ();
    if want "table1" || !only = None then table1 ();
    if want "impl_proof" || !only = None then impl_proof ();
    if want "implication" || !only = None then implication_proof ();
    if (want "tables23" || !only = None) && not quick then tables23 ();
    if want "ablation_simplify" || !only = None then ablation_simplifier ();
    if want "ablation_mapping" || !only = None then ablation_mapping ();
    if want "ablation_order" || !only = None then ablation_order ();
    if want "pipeline" || !only = None then pipeline_json ();
    if want "analysis" || !only = None then analysis_json ();
    if want "prover" || !only = None then prover_json ();
    if want "farm" || !only = None then farm_json ();
    if want "certify" || !only = None then certify_json ();
    if want "impact" || !only = None then impact_json ();
    if want "micro" || !only = None then micro_benchmarks ()
  end;
  Fmt.pr "@.total: %.1fs@." (Unix.gettimeofday () -. t0)
