(* echo-verify: command-line driver for the Echo verification toolchain.

   Subcommands operate on MiniSpark source files or on the built-in AES
   case study:
     check      parse and type-check a program
     analyze    Examiner-style flow analysis, amenability lint and
                interval discharge of exception-freedom VCs
     metrics    print the §5.2 metric hybrid
     suggest    propose loop-rerolling sites (§5.2 "suggested automatically")
     vcs        generate and summarise verification conditions
     prove      run the implementation proof (VC generation + prover)
     aes        drive the AES case study (refactor / proofs / defects)
     certify    certify the AES refactoring step by step (equivalence VCs
                + differential fuzzing oracle), or the seeded-defect corpus
     chaos      fault-injection suite over the orchestrated pipeline
     report     render a recorded run's telemetry as a text dashboard
     profile    perf attribution for a recorded run: cost centers,
                critical path, worker utilisation, flamegraph export
     serve      run the long-lived verification daemon (job queue +
                process-sharded proof workers, NDJSON over a Unix socket)
     submit     send one program to a running daemon and stream verdicts

   Exit codes follow the fault taxonomy (Echo.Fault.exit_code): 2 parse,
   3 type, 4 refactoring-not-applicable, 5 proof failure (residual VCs,
   timeouts, failed lemmas), 6 flow-analysis errors, 7 refuted
   certification, 8 service errors, 1 everything else. *)

open Minispark

let read_source path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let read_program path = Typecheck.check (Parser.of_string (read_source path))

(* every failure leaves through the fault taxonomy, so each class has a
   stable exit code (documented in --help) *)
let with_errors f =
  match Echo.Fault.guard f with
  | Ok v -> v
  | Error fault ->
      Fmt.epr "%a@." Echo.Fault.pp fault;
      exit (Echo.Fault.exit_code fault)

(* Resolve a --jobs request: 0 (the default) = the visible core count,
   because a fixed default oversubscribes small containers — jobs=4
   measured 3x slower than jobs=1 at one visible core (DESIGN.md §11,
   "Default width").
   Explicit oversubscription is honoured but called out. *)
let resolve_jobs jobs =
  if jobs <= 0 then Farm.Pool.default_jobs ()
  else begin
    (match Farm.Pool.oversubscribed ~jobs with
    | Some cores ->
        Fmt.epr
          "warning: --jobs %d exceeds the %d visible core(s); extra domains \
           only time-share@."
          jobs cores
    | None -> ());
    jobs
  end

(* ---------------- subcommands ---------------- *)

let cmd_check path () =
  with_errors (fun () ->
      let _, prog = read_program path in
      Fmt.pr "%s: %d declarations, %d subprograms — OK@." prog.Ast.prog_name
        (List.length prog.Ast.prog_decls)
        (List.length (Ast.subprograms prog)))

let cmd_analyze path json no_vcs () =
  with_errors (fun () ->
      let env, prog = read_program path in
      let an = Analysis.Examiner.analyze ~vcs:(not no_vcs) env prog in
      if json then
        print_endline (Telemetry.Json.to_string (Analysis.Examiner.to_json an))
      else Fmt.pr "%a" Analysis.Examiner.pp an;
      Echo.Orchestrator.analysis_gate an)

(* `impact OLD NEW`: change-impact analysis between two versions of a
   program — semantic diff, dependency-graph escalation, and (unless
   --no-vcs) the VC counts behind the re-prove set. *)
let cmd_impact old_path new_path json no_vcs () =
  with_errors (fun () ->
      let old_env, old_p = read_program old_path in
      let env, new_p = read_program new_path in
      let plan = Analysis.Impact.compute ~old_p ~new_p in
      let vc_counts =
        if no_vcs then None
        else
          let digests e p = Vcgen.vc_digests (Vcgen.generate e p) in
          let baseline = digests old_env old_p in
          let current = digests env new_p in
          let plan = Analysis.Impact.refine plan ~baseline ~current in
          let count names =
            List.fold_left
              (fun acc (s, ds) ->
                if List.mem s names then acc + List.length ds else acc)
              0 current
          in
          let reprove = count (Analysis.Impact.impacted_subs plan) in
          let total =
            List.fold_left (fun acc (_, ds) -> acc + List.length ds) 0 current
          in
          Some (plan, reprove, total)
      in
      let plan, vcs =
        match vc_counts with
        | Some (p, reprove, total) -> (p, Some (reprove, total))
        | None -> (plan, None)
      in
      if json then begin
        let b = Buffer.create 512 in
        Buffer.add_string b "{\"old\":";
        Buffer.add_string b (Printf.sprintf "%S" old_path);
        Buffer.add_string b ",\"new\":";
        Buffer.add_string b (Printf.sprintf "%S" new_path);
        Buffer.add_string b ",\"impact\":";
        Buffer.add_string b (Analysis.Impact.to_json plan);
        (match vcs with
        | Some (reprove, total) ->
            Buffer.add_string b
              (Printf.sprintf ",\"vcs\":{\"reprove\":%d,\"total\":%d}" reprove
                 total)
        | None -> ());
        Buffer.add_string b "}";
        print_endline (Buffer.contents b)
      end
      else begin
        Fmt.pr "%a@." Analysis.Semdiff.pp plan.Analysis.Impact.pl_diff;
        Fmt.pr "%a@." Analysis.Impact.pp plan;
        match vcs with
        | Some (reprove, total) ->
            Fmt.pr "VCs to re-prove: %d of %d@." reprove total
        | None -> ()
      end)

let cmd_metrics path () =
  with_errors (fun () ->
      let _, prog = read_program path in
      Fmt.pr "%a@." Metrics.pp (Metrics.analyze prog))

let cmd_suggest path () =
  with_errors (fun () ->
      let _, prog = read_program path in
      (match Refactor.Reroll.suggest prog with
      | [] -> Fmt.pr "no rerolling opportunities found@."
      | suggestions ->
          List.iter
            (fun (sub, from, group_len, count) ->
              Fmt.pr "reroll: %s statements %d..%d as %d groups of %d@." sub from
                (from + (group_len * count) - 1)
                count group_len)
            suggestions);
      match Refactor.Inline_reverse.suggest_clones prog with
      | [] -> Fmt.pr "no cloned fragments found@."
      | clones ->
          List.iter
            (fun c -> Fmt.pr "clone:  %a@." Refactor.Inline_reverse.pp_clone c)
            clones)

let cmd_vcs path () =
  with_errors (fun () ->
      let env, prog = read_program path in
      let report = Vcgen.generate env prog in
      (match report.Vcgen.r_infeasible with
      | Some reason -> Fmt.pr "VC generation infeasible: %s@." reason
      | None -> ());
      List.iter
        (fun (sr : Vcgen.sub_report) ->
          Fmt.pr "%-24s %d VCs@." sr.Vcgen.sr_sub (List.length sr.Vcgen.sr_vcs))
        report.Vcgen.r_subs;
      Fmt.pr "total: %d VCs, ~%d KB@."
        (List.length (Vcgen.all_vcs report))
        (Vcgen.bytes_of_nodes (Vcgen.total_nodes report) / 1024))

let cmd_prove path verbose jobs () =
  with_errors (fun () ->
      let jobs = resolve_jobs jobs in
      let env, prog = read_program path in
      let r = Echo.Implementation_proof.run ~jobs env prog in
      if verbose then Fmt.pr "%a@." Echo.Implementation_proof.pp_details r
      else Fmt.pr "%a@." Echo.Implementation_proof.pp_report r;
      if r.Echo.Implementation_proof.ip_residual > 0
         || r.Echo.Implementation_proof.ip_timed_out > 0
         || r.Echo.Implementation_proof.ip_infeasible <> None
      then exit 5)

let cmd_aes_refactor upto dump () =
  with_errors (fun () ->
      let snapshots, h = Aes.Aes_refactoring.run ~upto () in
      List.iter
        (fun (s : Aes.Aes_refactoring.snapshot) ->
          let m = Metrics.analyze s.Aes.Aes_refactoring.sn_program in
          Fmt.pr "block %2d: %4d LoC, %2d subprograms, cyclomatic %.2f — %s@."
            s.Aes.Aes_refactoring.sn_block m.Metrics.element.Metrics.em_lines
            m.Metrics.element.Metrics.em_subprograms
            m.Metrics.complexity.Metrics.cm_avg_cyclomatic s.Aes.Aes_refactoring.sn_title)
        snapshots;
      Fmt.pr "%a@." Refactor.History.pp_summary h;
      match dump with
      | None -> ()
      | Some path ->
          let final = List.nth snapshots (min upto (List.length snapshots - 1)) in
          let oc = open_out path in
          output_string oc
            (Pretty.program_to_string final.Aes.Aes_refactoring.sn_program);
          close_out oc;
          Fmt.pr "wrote %s@." path)

(* telemetry exporters share one error convention: warn, don't fail the
   verification verdict over an unwritable trace file *)
let write_or_warn what = function
  | Ok () -> ()
  | Error e -> Fmt.epr "warning: could not write %s: %s@." what e

(* the synthetic one-subprogram edit behind `--edit-sub`: a benign assert
   prepended to the named body — changes the subprogram's digest (and adds
   one trivially-true VC) without touching its meaning or its contract,
   so the blast radius of the impact analysis is exactly measurable *)
let benign_edit name prog =
  if Ast.find_sub prog name = None then
    invalid_arg (Printf.sprintf "--edit-sub: no subprogram %S" name);
  Ast.update_sub prog name (fun sp ->
      {
        sp with
        Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body;
      })

let cmd_aes_verify run_dir resume global_deadline vc_deadline analyze certify
    jobs cache_dir no_cache incremental baseline edit_sub trace metrics () =
  with_errors (fun () ->
      if resume && run_dir = None then begin
        Fmt.epr "--resume requires --run-dir@.";
        exit 1
      end;
      if no_cache && cache_dir <> None then begin
        Fmt.epr "--no-cache and --cache-dir are mutually exclusive@.";
        exit 1
      end;
      let incremental = incremental || baseline <> None in
      let baseline =
        if not incremental then None
        else
          match (baseline, run_dir) with
          | Some b, _ -> Some b
          | None, Some d -> Some d
          | None, None ->
              Fmt.epr "--incremental requires --baseline or --run-dir@.";
              exit 1
      in
      if edit_sub <> None && not incremental then begin
        Fmt.epr "--edit-sub only makes sense with --incremental@.";
        exit 1
      end;
      (* an incremental run without its own --run-dir updates the
         baseline directory in place (safe: the baseline is snapshotted
         before any stage writes) *)
      let run_dir = if incremental && run_dir = None then baseline else run_dir in
      if trace <> None || metrics <> None then Telemetry.enable ();
      let cache =
        if no_cache then Echo.Orchestrator.Cache_off
        else
          match cache_dir with
          | Some d -> Echo.Orchestrator.Cache_dir d
          | None -> Echo.Orchestrator.Cache_default
      in
      let config =
        {
          Echo.Orchestrator.default_config with
          Echo.Orchestrator.oc_run_dir = run_dir;
          oc_global_deadline_s = global_deadline;
          oc_vc_deadline_s = vc_deadline;
          oc_analyze = analyze;
          oc_certify = certify;
          oc_jobs = resolve_jobs jobs;
          oc_cache = cache;
          oc_baseline = baseline;
          oc_edit = Option.map benign_edit edit_sub;
        }
      in
      let report = Echo.Orchestrator.run ~resume ~config Aes.Aes_echo.case_study in
      Fmt.pr "%a@." Echo.Orchestrator.pp_report report;
      (match trace with
      | Some path ->
          write_or_warn path (Telemetry.write_chrome_trace ~path (Telemetry.events ()));
          Fmt.pr "trace: %s (load in chrome://tracing or ui.perfetto.dev)@." path
      | None -> ());
      (match metrics with
      | Some path ->
          write_or_warn path (Telemetry.write_metrics ~path (Telemetry.snapshot ()));
          Fmt.pr "metrics: %s@." path
      | None -> ());
      match report.Echo.Orchestrator.o_verdict with
      | Echo.Orchestrator.Verified | Echo.Orchestrator.Conditionally_verified _ -> ()
      | Echo.Orchestrator.Degraded d ->
          exit (Echo.Fault.exit_code d.Echo.Orchestrator.dg_fault)
      | Echo.Orchestrator.Failed f -> exit (Echo.Fault.exit_code f))

(* `report DIR`: render the telemetry persisted by `aes verify --run-dir
   DIR --metrics/--trace ...` (or by any orchestrated run with telemetry
   enabled) as a plain-text dashboard. *)
let cmd_report dir top trace_out () =
  with_errors (fun () ->
      let events_path = Filename.concat dir "telemetry.events.jsonl" in
      let metrics_path = Filename.concat dir "telemetry.metrics.json" in
      if not (Sys.file_exists events_path) then begin
        Fmt.epr
          "%s: no telemetry found (expected %s).@.Produce it with: echo-verify aes \
           verify --run-dir %s --trace trace.json@."
          dir events_path dir;
        exit 1
      end;
      let events =
        match Telemetry.read_jsonl ~path:events_path with
        | Ok evs -> evs
        | Error e ->
            Fmt.epr "%s: %s@." events_path e;
            exit 1
      in
      let metrics =
        if not (Sys.file_exists metrics_path) then None
        else
          match Telemetry.read_metrics ~path:metrics_path with
          | Ok m -> Some m
          | Error e ->
              Fmt.epr "warning: ignoring unreadable %s: %s@." metrics_path e;
              None
      in
      print_string (Telemetry.Summary.render ~top ~events ~metrics ());
      match trace_out with
      | Some path ->
          write_or_warn path (Telemetry.write_chrome_trace ~path events);
          Fmt.pr "trace: %s (load in chrome://tracing or ui.perfetto.dev)@." path
      | None -> ())

(* `profile DIR`: perf attribution over the same persisted telemetry
   `report` renders — hierarchical cost centers with GC deltas, the
   critical path with parallelism efficiency, per-worker utilisation,
   per-category refactor time, and an optional folded-stack flamegraph. *)

let focus_pred = function
  | "refactor" ->
      fun ~cat ~name -> cat = Telemetry.cat_stage && name = "refactor"
  | "prove" ->
      fun ~cat ~name ->
        cat = Telemetry.cat_stage
        && (name = "implementation-proof" || name = "implication-proof")
  | "certify" ->
      fun ~cat ~name -> cat = Telemetry.cat_transform && name = "certify"
  | _ -> fun ~cat:_ ~name:_ -> true

let cmd_profile dir top focus flame () =
  with_errors (fun () ->
      let events_path = Filename.concat dir "telemetry.events.jsonl" in
      if not (Sys.file_exists events_path) then begin
        Fmt.epr
          "%s: no telemetry found (expected %s).@.Produce it with: echo-verify aes \
           verify --run-dir %s --trace trace.json@."
          dir events_path dir;
        exit 1
      end;
      let events =
        match Telemetry.read_jsonl ~path:events_path with
        | Ok evs -> evs
        | Error e ->
            Fmt.epr "%s: %s@." events_path e;
            exit 1
      in
      let events =
        match focus with
        | None -> events
        | Some f -> Profile.focus ~keep:(focus_pred f) events
      in
      let centers = Profile.cost_centers events in
      if centers = [] then begin
        Fmt.epr "no spans%s in %s@."
          (match focus with Some f -> " matching --focus " ^ f | None -> "")
          events_path;
        exit 1
      end;
      Fmt.pr "top %d cost center(s) of %d (self-time order):@." (min top (List.length centers))
        (List.length centers);
      Fmt.pr "  %9s %9s %6s %11s %11s  %s@." "self(s)" "total(s)" "count"
        "minor(Mw)" "major(Mw)" "cost center";
      List.iteri
        (fun i (cc : Profile.cost_center) ->
          if i < top then
            Fmt.pr "  %9.3f %9.3f %6d %11.2f %11.2f  %s@." cc.Profile.cc_self
              cc.Profile.cc_total cc.Profile.cc_count
              (cc.Profile.cc_gc_minor_w /. 1e6)
              (cc.Profile.cc_gc_major_w /. 1e6)
              (String.concat " / " cc.Profile.cc_path))
        centers;
      let cp = Profile.critical_path events in
      Fmt.pr
        "@.critical path %.3fs over %d frame(s), total work %.3fs, %d worker(s) \
         -> parallelism efficiency %.1f%%@."
        cp.Profile.cp_seconds
        (List.length cp.Profile.cp_frames)
        cp.Profile.cp_total_work cp.Profile.cp_workers
        (100.0 *. cp.Profile.cp_efficiency);
      (* the chain can run to hundreds of frames on a long refactoring
         script; show where its time actually sits *)
      let heaviest =
        List.mapi (fun i (name, self) -> (i, name, self)) cp.Profile.cp_frames
        |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
      in
      Fmt.pr "  heaviest frames on the path (position. name):@.";
      List.iteri
        (fun rank (i, name, self) ->
          if rank < top then Fmt.pr "    %4d. %-40s %9.3fs self@." i name self)
        heaviest;
      (match Profile.worker_stats events with
      | [] -> ()
      | ws ->
          Fmt.pr "@.worker utilisation:@.";
          List.iter
            (fun (w : Profile.worker_stat) ->
              Fmt.pr
                "  %-12s wall %8.3fs  busy %8.3fs  idle %8.3fs  steal-scan \
                 %7.3fs  %d job(s), %d steal(s)@."
                w.Profile.w_name w.Profile.w_wall w.Profile.w_busy
                w.Profile.w_idle w.Profile.w_steal w.Profile.w_jobs
                w.Profile.w_steals)
            ws);
      (match Profile.refactor_categories events with
      | [] -> ()
      | cats ->
          Fmt.pr "@.refactor time by transformation category:@.";
          List.iter
            (fun (cat, steps, secs) ->
              Fmt.pr "  %-52s %3d step(s) %9.3fs@." cat steps secs)
            cats);
      match flame with
      | Some path ->
          write_or_warn path (Profile.write_folded ~path events);
          Fmt.pr "@.flamegraph: %s (load in speedscope.app or flamegraph.pl)@." path
      | None -> ())

(* `certify`: the refactoring certification gate as a standalone command.
   Default mode runs the whole AES script with per-step certification and
   prints the certificate table; --defects instead certifies each seeded
   defect against the original, expecting a refutation with a concrete
   counterexample for every non-benign defect.  Either way a violated
   expectation leaves with exit code 7 (Fault.Certification). *)

let certify_entries = [ "encrypt_block"; "decrypt_block" ]

let write_json path json =
  let oc = open_out path in
  output_string oc (Telemetry.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Fmt.pr "wrote %s@." path

let audit_json (a : Refactor.Certify.audit) =
  Telemetry.Json.Obj
    [ ("steps", Telemetry.Json.Int a.Refactor.Certify.au_steps);
      ("certified", Telemetry.Json.Int a.Refactor.Certify.au_certified);
      ("refuted", Telemetry.Json.Int a.Refactor.Certify.au_refuted);
      ("unknown", Telemetry.Json.Int a.Refactor.Certify.au_unknown) ]

let cmd_certify_script trials jobs cache_dir json () =
  let cache = Option.map (fun dir -> Farm.Cache.open_ ~dir) cache_dir in
  let cfg =
    {
      (Refactor.Certify.default_config ~entries:certify_entries ()) with
      Refactor.Certify.cf_trials = trials;
      cf_jobs = resolve_jobs jobs;
      cf_cache = cache;
    }
  in
  let _, h = Aes.Aes_refactoring.run ~certify:cfg () in
  let certs = Refactor.History.certificates h in
  List.iter
    (fun (i, name, c) ->
      Fmt.pr "step %2d  %-36s %s@." i name (Refactor.Certify.describe c))
    certs;
  let audit = Refactor.Certify.audit certs in
  let stats = Refactor.History.certification_stats h in
  Fmt.pr "certified %d/%d step(s) (%d refuted, %d unknown)@."
    audit.Refactor.Certify.au_certified audit.Refactor.Certify.au_steps
    audit.Refactor.Certify.au_refuted audit.Refactor.Certify.au_unknown;
  Fmt.pr
    "targets %d, equivalence VCs %d (%d proved), cache %d hit(s) / %d miss(es), \
     oracle trials %d@."
    stats.Refactor.Certify.ct_targets stats.Refactor.Certify.ct_vcs_generated
    stats.Refactor.Certify.ct_vcs_proved stats.Refactor.Certify.ct_cache_hits
    stats.Refactor.Certify.ct_cache_misses stats.Refactor.Certify.ct_oracle_trials;
  (match json with
  | None -> ()
  | Some path ->
      write_json path
        (Telemetry.Json.Obj
           [ ("case", Telemetry.Json.String "aes-refactoring-script");
             ( "steps",
               Telemetry.Json.List
                 (List.map
                    (fun (i, name, c) ->
                      Telemetry.Json.Obj
                        [ ("index", Telemetry.Json.Int i);
                          ("name", Telemetry.Json.String name);
                          ("certificate", Refactor.Certify.certificate_to_json c) ])
                    certs) );
             ("audit", audit_json audit);
             ("stats", Refactor.Certify.stats_to_json stats) ]));
  if audit.Refactor.Certify.au_unknown > 0 then
    raise
      (Echo.Fault.Fault
         (Echo.Fault.Certification
            {
              cert_step = "<script>";
              cert_reason =
                Printf.sprintf "%d step(s) could not be certified"
                  audit.Refactor.Certify.au_unknown;
            }))

let cmd_certify_defects trials jobs cache_dir json () =
  let _, prog = Aes.Aes_impl.checked () in
  let before = Typecheck.check prog in
  let cache = Option.map (fun dir -> Farm.Cache.open_ ~dir) cache_dir in
  let cfg =
    {
      (Refactor.Certify.default_config ~entries:certify_entries ()) with
      Refactor.Certify.cf_trials = trials;
      cf_jobs = resolve_jobs jobs;
      cf_cache = cache;
    }
  in
  let defects = Defects.Seed.seed_all prog in
  (* the defects share one [before]: certify them as one batch *)
  let certs =
    Refactor.Certify.certify_steps cfg
      (List.map
         (fun (d : Defects.Seed.defect) ->
           { Refactor.Certify.sp_name = Printf.sprintf "defect-%d" d.Defects.Seed.d_id;
             sp_before = before;
             sp_after = Typecheck.check (d.Defects.Seed.d_apply prog) })
         defects)
  in
  let outcomes =
    List.map2
      (fun (d : Defects.Seed.defect) (cert, _) ->
        let expected =
          match (cert, d.Defects.Seed.d_benign) with
          | Refactor.Certify.Refuted _, false -> true
          | Refactor.Certify.Certified _, true -> true
          | _ -> false
        in
        Fmt.pr "defect %2d %-8s %-44s %s%s@." d.Defects.Seed.d_id
          (if d.Defects.Seed.d_benign then "benign" else "real")
          d.Defects.Seed.d_describe
          (Refactor.Certify.describe cert)
          (if expected then "" else "  <-- UNEXPECTED");
        (d, cert, expected))
      defects certs
  in
  let missed = List.filter (fun (_, _, ok) -> not ok) outcomes in
  Fmt.pr "%d/%d defect(s) behaved as expected@."
    (List.length outcomes - List.length missed)
    (List.length outcomes);
  (match json with
  | None -> ()
  | Some path ->
      write_json path
        (Telemetry.Json.Obj
           [ ("case", Telemetry.Json.String "aes-seeded-defects");
             ( "defects",
               Telemetry.Json.List
                 (List.map
                    (fun ((d : Defects.Seed.defect), cert, ok) ->
                      Telemetry.Json.Obj
                        [ ("id", Telemetry.Json.Int d.Defects.Seed.d_id);
                          ( "benign",
                            Telemetry.Json.Bool d.Defects.Seed.d_benign );
                          ( "describe",
                            Telemetry.Json.String d.Defects.Seed.d_describe );
                          ("certificate", Refactor.Certify.certificate_to_json cert);
                          ("as_expected", Telemetry.Json.Bool ok) ])
                    outcomes) ) ]));
  match missed with
  | [] -> ()
  | ((d : Defects.Seed.defect), cert, _) :: _ ->
      raise
        (Echo.Fault.Fault
           (Echo.Fault.Certification
              {
                cert_step = Printf.sprintf "defect-%d" d.Defects.Seed.d_id;
                cert_reason =
                  Printf.sprintf
                    "%d defect(s) not caught as expected (first: %s — %s)"
                    (List.length missed) d.Defects.Seed.d_describe
                    (Refactor.Certify.describe cert);
              }))

let cmd_certify defects trials jobs cache_dir json () =
  with_errors
    (if defects then cmd_certify_defects trials jobs cache_dir json
     else cmd_certify_script trials jobs cache_dir json)

let cmd_chaos probe () =
  with_errors (fun () ->
      let outcomes =
        match probe with
        | None -> Defects.Chaos.run_suite Aes.Aes_echo.case_study
        | Some name -> (
            match
              List.find_opt
                (fun p -> String.equal (Defects.Chaos.probe_name p) name)
                Defects.Chaos.all_probes
            with
            | Some p -> [ Defects.Chaos.run_probe p Aes.Aes_echo.case_study ]
            | None ->
                Fmt.epr "unknown probe %S (try: %s)@." name
                  (String.concat ", "
                     (List.map Defects.Chaos.probe_name Defects.Chaos.all_probes));
                exit 1)
      in
      Fmt.pr "%a@." Defects.Chaos.pp_suite outcomes;
      if not (Defects.Chaos.all_ok outcomes) then exit 1)

let cmd_aes_defects setup () =
  with_errors (fun () ->
      let t1, t2 = Defects.Experiment.run_experiment () in
      (match setup with
      | 1 -> Fmt.pr "%a@." Defects.Experiment.pp_table t1
      | 2 -> Fmt.pr "%a@." Defects.Experiment.pp_table t2
      | _ ->
          Fmt.pr "%a@." Defects.Experiment.pp_table t1;
          Fmt.pr "%a@." Defects.Experiment.pp_table t2))

let cmd_aes_dump which path () =
  with_errors (fun () ->
      let program =
        match which with
        | "optimized" -> snd (Aes.Aes_impl.checked ())
        | "refactored" ->
            let snapshots, _ = Aes.Aes_refactoring.run () in
            (List.nth snapshots 14).Aes.Aes_refactoring.sn_program
        | "annotated" ->
            let snapshots, _ = Aes.Aes_refactoring.run () in
            Aes.Aes_annotations.annotate
              (List.nth snapshots 14).Aes.Aes_refactoring.sn_program
        | other ->
            Fmt.epr "unknown variant %S (optimized|refactored|annotated)@." other;
            exit 1
      in
      let text = Pretty.program_to_string program in
      match path with
      | None -> print_string text
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Fmt.pr "wrote %s@." path)

(* ---------------- the verification service ---------------- *)

let default_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) "echo-serve.sock"

let default_state_dir () =
  Filename.concat (Filename.get_temp_dir_name ()) "echo-serve"

let cmd_serve socket jobs capacity max_attempts cache_dir no_cache state_dir
    telemetry verbose () =
  with_errors (fun () ->
      let jobs = if jobs <= 0 then Farm.Pool.default_jobs () else resolve_jobs jobs in
      let state_dir = Option.value ~default:(default_state_dir ()) state_dir in
      let cache_dir =
        if no_cache then None
        else Some (Option.value ~default:(Filename.concat state_dir "cache") cache_dir)
      in
      let config =
        {
          Serve.Daemon.default_config with
          Serve.Daemon.dc_jobs = jobs;
          dc_capacity = capacity;
          dc_max_attempts = max_attempts;
          dc_cache_dir = cache_dir;
          dc_state_dir = Some state_dir;
          dc_telemetry = telemetry;
          dc_log =
            (if verbose then Some (fun m -> Fmt.epr "[serve] %s@." m) else None);
        }
      in
      Fmt.pr "echo serve: %d worker(s), queue capacity %d, socket %s@." jobs
        capacity socket;
      Fmt.pr "SIGTERM drains: running jobs finish, queued jobs checkpoint to %s@."
        (Filename.concat state_dir "queue.jsonl");
      let st = Serve.Daemon.run_socket ~config ~path:socket () in
      Fmt.pr
        "served %d submission(s): %d completed, %d dedup hit(s), %d rejected, \
         %d worker crash(es) survived@."
        st.Serve.Protocol.st_submitted st.Serve.Protocol.st_completed
        st.Serve.Protocol.st_dedup_hits st.Serve.Protocol.st_rejected
        st.Serve.Protocol.st_worker_crashes)

let pp_stage_event quiet ev =
  if not quiet then
    match ev with
    | Serve.Protocol.Accepted { ev_job; ev_depth } ->
        Fmt.pr "accepted as %s (queue depth %d)@." ev_job ev_depth
    | Serve.Protocol.Stage { ev_stage; ev_phase; ev_attempt; _ } -> (
        match ev_phase with
        | Serve.Protocol.P_start ->
            if ev_attempt > 1 then
              Fmt.pr "  %-8s start (attempt %d)@." ev_stage ev_attempt
            else Fmt.pr "  %-8s start@." ev_stage
        | Serve.Protocol.P_ok s -> Fmt.pr "  %-8s ok    %.3fs@." ev_stage s
        | Serve.Protocol.P_failed d -> Fmt.pr "  %-8s failed: %s@." ev_stage d)
    | _ -> ()

let cmd_submit path socket id analyze priority deadline baseline_job quiet () =
  with_errors (fun () ->
      (* a daemon that vanishes mid-write must surface as exit 8, not
         SIGPIPE death *)
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      let source = read_source path in
      match Serve.Client.connect ~path:socket with
      | Error e ->
          Fmt.epr "%s@." e;
          exit (Serve.Protocol.exit_code_of_class "service")
      | Ok cl -> (
          let js =
            Serve.Protocol.job ~id ~analyze ~priority ?deadline_s:deadline
              ?baseline_job ~source ()
          in
          match Serve.Client.run_job ~on_event:(pp_stage_event quiet) cl js with
          | Error reason ->
              Serve.Client.close cl;
              Fmt.epr "rejected: %s@." reason;
              exit (Serve.Protocol.exit_code_of_class "service")
          | Ok (w, dedup, _attempts) ->
              Serve.Client.close cl;
              Fmt.pr "%s: %d VCs — %d auto, %d hinted, %d discharged, %d \
                      carried, %d residual, %d timed out (%.3fs%s)@."
                w.Serve.Protocol.w_verdict w.Serve.Protocol.w_total
                w.Serve.Protocol.w_auto w.Serve.Protocol.w_hinted
                w.Serve.Protocol.w_discharged w.Serve.Protocol.w_carried
                w.Serve.Protocol.w_residual w.Serve.Protocol.w_timed_out
                w.Serve.Protocol.w_seconds
                (if dedup then ", deduplicated" else "");
              List.iter (fun n -> Fmt.pr "note: %s@." n) w.Serve.Protocol.w_notes;
              (match w.Serve.Protocol.w_verdict with
              | "verified" -> ()
              | "failed" | "degraded" ->
                  let cls, detail =
                    Option.value ~default:("other", "") w.Serve.Protocol.w_fault
                  in
                  Fmt.epr "fault (%s): %s@." cls detail;
                  exit (Serve.Protocol.exit_code_of_class cls)
              | _ -> exit 5)))

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

(* the fault-taxonomy exit codes, shown in every subcommand's --help *)
let exits =
  Cmd.Exit.info ~doc:"on parse errors." 2
  :: Cmd.Exit.info ~doc:"on type errors." 3
  :: Cmd.Exit.info ~doc:"when a refactoring transformation is not applicable." 4
  :: Cmd.Exit.info ~doc:"on proof failure: residual VCs, prover timeouts, infeasible \
                         VC generation or failed implication lemmas."
       5
  :: Cmd.Exit.info ~doc:"when flow analysis reports error-severity diagnostics." 6
  :: Cmd.Exit.info ~doc:"when step certification refutes a refactoring step (or the \
                         certification gate's expectation is violated)."
       7
  :: Cmd.Exit.info ~doc:"on verification-service errors: no daemon at the socket, \
                         rejected submissions, or a worker process that crashed \
                         past its retry budget."
       8
  :: Cmd.Exit.defaults

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniSpark source file")

let check_cmd =
  Cmd.v (Cmd.info "check" ~exits ~doc:"Parse and type-check a MiniSpark program")
    Term.(const cmd_check $ path_arg $ const ())

let analyze_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output")
  in
  let no_vcs =
    Arg.(value & flag
         & info [ "no-vcs" ]
             ~doc:"Skip VC generation and interval discharge (flow and \
                   amenability checks only)")
  in
  Cmd.v
    (Cmd.info "analyze" ~exits
       ~doc:"Examiner-style static analysis: definite-initialisation and \
             information-flow checks, refactoring-amenability lint, and \
             interval discharge of exception-freedom VCs")
    Term.(const cmd_analyze $ path_arg $ json $ no_vcs $ const ())

let impact_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"Baseline MiniSpark source file")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"Edited MiniSpark source file")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output")
  in
  let no_vcs =
    Arg.(value & flag
         & info [ "no-vcs" ]
             ~doc:"Skip VC generation (dependency graph, semantic diff and \
                   impact plan only — no re-prove VC counts)")
  in
  Cmd.v
    (Cmd.info "impact" ~exits
       ~doc:"Change-impact analysis between two versions of a program: \
             semantic diff over per-subprogram digests, interprocedural \
             dependency propagation, and the minimal sound set of VCs to \
             re-prove")
    Term.(const cmd_impact $ old_arg $ new_arg $ json $ no_vcs $ const ())

let metrics_cmd =
  Cmd.v (Cmd.info "metrics" ~exits ~doc:"Print the verification-guidance metrics (§5.2)")
    Term.(const cmd_metrics $ path_arg $ const ())

let suggest_cmd =
  Cmd.v (Cmd.info "suggest" ~exits ~doc:"Suggest loop-rerolling transformations")
    Term.(const cmd_suggest $ path_arg $ const ())

let vcs_cmd =
  Cmd.v (Cmd.info "vcs" ~exits ~doc:"Generate verification conditions and report sizes")
    Term.(const cmd_vcs $ path_arg $ const ())

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Run the proof farm's jobs (VCs; for certify, oracle runs; \
                 for aes verify, implication lemmas) on N domains with work \
                 stealing.  Defaults to the visible core count; explicit \
                 values above it are honoured with a warning (extra domains \
                 only time-share).  Verdicts are identical for any value")

let prove_cmd =
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-VC details") in
  Cmd.v (Cmd.info "prove" ~exits ~doc:"Run the implementation proof on an annotated program")
    Term.(const cmd_prove $ path_arg $ verbose $ jobs_arg $ const ())

let aes_refactor_cmd =
  let upto =
    Arg.(value & opt int 14 & info [ "upto" ] ~docv:"N" ~doc:"Stop after block N")
  in
  let dump =
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc:"Write the result")
  in
  Cmd.v (Cmd.info "refactor" ~exits ~doc:"Run the 14-block AES verification refactoring")
    Term.(const cmd_aes_refactor $ upto $ dump $ const ())

let aes_verify_cmd =
  let run_dir =
    Arg.(value & opt (some string) None
         & info [ "run-dir" ] ~docv:"DIR" ~doc:"Checkpoint directory for the run")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ] ~doc:"Resume from the checkpoints in --run-dir")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Global pipeline wall-clock budget")
  in
  let vc_deadline =
    Arg.(value & opt (some float) None
         & info [ "vc-deadline" ] ~docv:"SECONDS" ~doc:"Per-VC-attempt wall-clock budget")
  in
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Run the flow-analysis pre-pass; interval analysis \
                   statically discharges exception-freedom VCs so the \
                   prover never sees them")
  in
  let certify =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"Certify every refactoring step: per-step equivalence \
                   VCs through the proof cache plus a differential \
                   fuzzing oracle.  A refuted step fails the run with \
                   exit code 7")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent proof-cache directory shared across runs \
                   (default: proof-cache/ under --run-dir when set)")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Never consult or write the persistent proof cache")
  in
  let incremental =
    Arg.(value & flag
         & info [ "incremental" ]
             ~doc:"Incremental re-verification: load the baseline run's \
                   checkpoints, diff the annotated program, re-prove only \
                   the impacted VCs and carry every other baseline verdict \
                   (the impact audit is checkpointed and printed)")
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"DIR"
             ~doc:"Baseline run directory for --incremental (default: \
                   --run-dir; implies --incremental when given)")
  in
  let edit_sub =
    Arg.(value & opt (some string) None
         & info [ "edit-sub" ] ~docv:"NAME"
             ~doc:"With --incremental: apply a benign synthetic edit (a \
                   true assert) to the named subprogram of the baseline's \
                   annotated program before re-verifying — the measurable \
                   one-subprogram change the CI gate is built on")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Enable telemetry and write a Chrome trace_event file \
                   (chrome://tracing, ui.perfetto.dev)")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Enable telemetry and write the metrics snapshot as JSON")
  in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:"Full Echo pipeline on AES under the resilient orchestrator: refactor, \
             both proofs, with optional budgets, checkpoint/resume, incremental \
             re-verification and telemetry")
    Term.(
      const cmd_aes_verify $ run_dir $ resume $ deadline $ vc_deadline $ analyze
      $ certify $ jobs_arg $ cache_dir $ no_cache $ incremental $ baseline
      $ edit_sub $ trace $ metrics $ const ())

let aes_defects_cmd =
  let setup =
    Arg.(value & opt int 0 & info [ "setup" ] ~docv:"N" ~doc:"Run only setup 1 or 2")
  in
  Cmd.v (Cmd.info "defects" ~exits ~doc:"Run the seeded-defect experiment (Tables 2/3)")
    Term.(const cmd_aes_defects $ setup $ const ())

let aes_dump_cmd =
  let which =
    Arg.(value & pos 0 string "optimized" & info [] ~docv:"VARIANT"
           ~doc:"optimized | refactored | annotated")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output file")
  in
  Cmd.v (Cmd.info "dump" ~exits ~doc:"Print an AES program variant as MiniSpark source")
    Term.(const cmd_aes_dump $ which $ out $ const ())

let aes_cmd =
  Cmd.group (Cmd.info "aes" ~exits ~doc:"The AES case study (§6)")
    [ aes_refactor_cmd; aes_verify_cmd; aes_defects_cmd; aes_dump_cmd ]

let certify_cmd =
  let defects =
    Arg.(value & flag
         & info [ "defects" ]
             ~doc:"Certify each seeded defect against the original \
                   program instead of running the refactoring script; \
                   every non-benign defect must be refuted with a \
                   concrete counterexample")
  in
  let trials =
    Arg.(value & opt int 24
         & info [ "trials" ] ~docv:"N"
             ~doc:"Differential-oracle trials per certification target")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent proof cache for the equivalence VCs; a \
                   repeated script re-certifies its static side for free")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the per-step certificates (or per-defect \
                   outcomes) as a JSON artifact")
  in
  Cmd.v
    (Cmd.info "certify" ~exits
       ~doc:"Certify every step of the AES refactoring, as one proof-farm \
             batch: equivalence VCs plus a fuel-bounded differential \
             fuzzing oracle.  Exit code 7 when a step is refuted or a \
             seeded defect escapes")
    Term.(const cmd_certify $ defects $ trials $ jobs_arg $ cache_dir $ json $ const ())

let chaos_cmd =
  let probe =
    Arg.(value & opt (some string) None
         & info [ "probe" ] ~docv:"NAME" ~doc:"Run a single probe instead of the suite")
  in
  Cmd.v
    (Cmd.info "chaos" ~exits
       ~doc:"Inject a fault into each pipeline stage and check the orchestrator \
             absorbs it (never raises, degrades gracefully)")
    Term.(const cmd_chaos $ probe $ const ())

let report_cmd =
  let dir =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR" ~doc:"Run directory with persisted telemetry")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Rows in the top-N tables")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Also export the stored events as a Chrome trace_event file")
  in
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:"Render the telemetry of a previous run: per-stage timings, slowest VCs, \
             retry hot spots, match-ratio evolution, metrics")
    Term.(const cmd_report $ dir $ top $ trace_out $ const ())

let profile_cmd =
  let dir =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR" ~doc:"Run directory with persisted telemetry")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N" ~doc:"Rows in the cost-center table")
  in
  let focus =
    Arg.(value
         & opt (some (enum [ ("refactor", "refactor"); ("prove", "prove");
                             ("certify", "certify") ]))
             None
         & info [ "focus" ] ~docv:"STAGE"
             ~doc:"Restrict the analysis to one subtree: the refactor \
                   stage, the proof stages, or the per-step certification \
                   spans")
  in
  let flame =
    Arg.(value & opt (some string) None
         & info [ "flamegraph" ] ~docv:"FILE"
             ~doc:"Write a folded-stack (Brendan Gregg collapse format) \
                   flamegraph, loadable in speedscope or flamegraph.pl")
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:"Attribute a recorded run's time: hierarchical cost centers with \
             self/total time and GC words, the critical path with parallelism \
             efficiency, per-worker utilisation, per-category refactor time, \
             and folded-stack flamegraph export")
    Term.(const cmd_profile $ dir $ top $ focus $ flame $ const ())

let socket_arg =
  let doc = "Unix-domain socket the daemon listens on" in
  Arg.(value
       & opt string (default_socket ())
       & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let capacity =
    Arg.(value & opt int 64
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Job-queue bound; submissions past it are rejected with \
                   backpressure")
  in
  let max_attempts =
    Arg.(value & opt int 2
         & info [ "max-attempts" ] ~docv:"N"
             ~doc:"Attempts per job including retries after worker crashes")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Proof-cache directory shared by all workers (default: \
                   CACHE under --state-dir)")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the shared proof cache")
  in
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Daemon state: queue checkpoints, telemetry scratch")
  in
  let telemetry =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Collect a daemon trace (per-job spans with each worker's \
                   span tree merged in); written to serve-trace.jsonl under \
                   --state-dir on exit")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log daemon activity to stderr")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Run the verification daemon: a bounded priority job queue feeding \
             forked proof-worker processes, streaming per-stage status and \
             verdicts to clients over NDJSON.  Duplicate submissions are \
             answered from the outcome table; jobs naming a baseline job \
             re-prove only the impacted subprograms; worker crashes are \
             retried on a respawned worker without daemon downtime")
    Term.(const cmd_serve $ socket_arg $ jobs_arg $ capacity $ max_attempts
          $ cache_dir $ no_cache $ state_dir $ telemetry $ verbose $ const ())

let submit_cmd =
  let id =
    Arg.(value & opt string ""
         & info [ "id" ] ~docv:"ID"
             ~doc:"Job id (daemon assigns one when omitted); later jobs can \
                   name it as their --baseline")
  in
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Flow-analysis pre-pass + interval discharge before the proof")
  in
  let priority =
    Arg.(value & opt int 1
         & info [ "priority" ] ~docv:"P"
             ~doc:"Queue level: 0 urgent, 1 normal, 2 batch")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-job wall-clock budget")
  in
  let baseline_job =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"JOB"
             ~doc:"Completed job id to verify incrementally against: only \
                   subprograms the change-impact analysis flags are re-proved, \
                   every other verdict is carried over")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-stage progress")
  in
  Cmd.v
    (Cmd.info "submit" ~exits
       ~doc:"Submit a MiniSpark program to a running daemon, stream its \
             per-stage progress, and exit with the verdict's fault-taxonomy \
             code")
    Term.(const cmd_submit $ path_arg $ socket_arg $ id $ analyze $ priority
          $ deadline $ baseline_job $ quiet $ const ())

let main =
  Cmd.group
    (Cmd.info "echo-verify" ~version:"1.0.0" ~exits
       ~doc:"Echo verification with refactoring (Yin, Knight & Weimer, DSN 2009)")
    [ check_cmd; analyze_cmd; impact_cmd; metrics_cmd; suggest_cmd; vcs_cmd;
      prove_cmd; aes_cmd; certify_cmd; chaos_cmd; report_cmd; profile_cmd;
      serve_cmd; submit_cmd ]

let () = exit (Cmd.eval main)
