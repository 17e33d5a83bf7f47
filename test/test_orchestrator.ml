(* Tests for the resilient orchestration layer: clean runs, checkpointed
   resume, prover deadlines, the capability ladder, and the chaos suite's
   fault-injection probes. *)

open Minispark
module O = Echo.Orchestrator
module CK = Echo.Checkpoint
module P = Logic.Prover
module F = Logic.Formula

(* A miniature case study: two trivial procedures plus an array-fill loop
   whose invariant VCs need real proof search (so deadlines can bite). *)
let tiny_src =
  {|
program tiny is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

  procedure swap (a : in out byte; b : in out byte)
  --# post a = b~ and b = a~;
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
  end swap;

  procedure fill (v : out vec)
  --# post (for all k in 0 .. 7 => v (k) = 0);
  is
  begin
    for i in 0 .. 7
    --# invariant (for all k in 0 .. i - 1 => v (k) = 0);
    loop
      v (i) := 0;
    end loop;
  end fill;

end tiny;
|}

let tiny_case () : Echo.Pipeline.case_study =
  let env, prog = Typecheck.check (Parser.of_string tiny_src) in
  let spec = Extract.extract_program env prog in
  {
    Echo.Pipeline.cs_name = "tiny";
    cs_refactor = (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
    cs_annotate = (fun p -> p);
    cs_original_spec = spec;
    cs_synonyms = [];
    cs_lemmas =
      (fun ~extracted:_ ->
        [
          Echo.Implication.structural ~name:"tiny_struct" ~original:"tiny"
            ~extracted:"tiny" ~premises:[] ~check:(fun () -> true) ();
        ]);
  }

let temp_run_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "echo-ckpt-%s-%d" tag (Unix.getpid ()))

(* ---------------- clean runs ---------------- *)

let test_clean_run_verified () =
  let r = O.run (tiny_case ()) in
  (match r.O.o_verdict with
  | O.Verified -> ()
  | v -> Alcotest.failf "expected Verified, got %a" O.pp_verdict v);
  Alcotest.(check int) "five stages" 5 (List.length r.O.o_stages);
  List.iter
    (fun (s, status) ->
      match status with
      | O.St_ok { st_from_checkpoint = false; _ } -> ()
      | _ -> Alcotest.failf "stage %s not freshly ok" (CK.stage_name s))
    r.O.o_stages;
  (match r.O.o_impl with
  | Some impl ->
      Alcotest.(check bool) "has VCs" true (impl.Echo.Implementation_proof.ip_total > 0);
      Alcotest.(check bool) "attempts >= VCs" true
        (r.O.o_attempts >= impl.Echo.Implementation_proof.ip_total)
  | None -> Alcotest.fail "no implementation-proof report");
  Alcotest.(check bool) "lemma recorded" true
    (List.exists (fun (n, holds, _) -> n = "tiny_struct" && holds) r.O.o_lemmas)

let test_global_deadline () =
  (* an already-expired global budget: the run must come back immediately
     with a Deadline fault, not hang or raise *)
  let config = { O.default_config with O.oc_global_deadline_s = Some 0.0 } in
  let r = O.run ~config (tiny_case ()) in
  (match r.O.o_verdict with
  | O.Failed (Echo.Fault.Deadline _) -> ()
  | v -> Alcotest.failf "expected Failed (Deadline), got %a" O.pp_verdict v);
  Alcotest.(check bool) "returned promptly" true (r.O.o_time < 5.0)

(* ---------------- checkpoint + resume ---------------- *)

let test_checkpoint_resume_bitforbit () =
  let dir = temp_run_dir "resume" in
  let config = { O.default_config with O.oc_run_dir = Some dir } in
  let fresh = O.run ~config (tiny_case ()) in
  let resumed = O.resume ~config (tiny_case ()) in
  Fun.protect
    ~finally:(fun () -> CK.clear ~dir)
    (fun () ->
      Alcotest.(check bool) "verdicts identical" true
        (fresh.O.o_verdict = resumed.O.o_verdict);
      (match (fresh.O.o_impl, resumed.O.o_impl) with
      | Some a, Some b ->
          let stats (r : Echo.Implementation_proof.report) =
            Echo.Implementation_proof.
              (r.ip_total, r.ip_auto, r.ip_hinted, r.ip_residual, r.ip_timed_out,
               r.ip_attempts)
          in
          Alcotest.(check bool) "proof stats identical" true (stats a = stats b)
      | _ -> Alcotest.fail "missing implementation-proof report");
      Alcotest.(check bool) "lemma outcomes identical" true
        (fresh.O.o_lemmas = resumed.O.o_lemmas);
      (* every stage of the resumed run must come from its checkpoint *)
      List.iter
        (fun (s, status) ->
          match status with
          | O.St_ok { st_from_checkpoint = true; _ } -> ()
          | _ -> Alcotest.failf "stage %s not loaded from checkpoint" (CK.stage_name s))
        resumed.O.o_stages)

let test_fresh_run_clears_stale_checkpoints () =
  let dir = temp_run_dir "clear" in
  let config = { O.default_config with O.oc_run_dir = Some dir } in
  let _ = O.run ~config (tiny_case ()) in
  (* a non-resume run must not pick up the files the first one wrote *)
  let again = O.run ~config (tiny_case ()) in
  Fun.protect
    ~finally:(fun () -> CK.clear ~dir)
    (fun () ->
      List.iter
        (fun (s, status) ->
          match status with
          | O.St_ok { st_from_checkpoint = false; _ } -> ()
          | _ -> Alcotest.failf "stage %s reused a stale checkpoint" (CK.stage_name s))
        again.O.o_stages)

(* ---------------- prover deadline regression ---------------- *)

(* A quantified goal over a five-million-point range: without a deadline
   the case-split enumeration grinds for seconds; with one it must come
   back as [Timeout] within 2x of the budget. *)
let pathological_vc =
  let body =
    F.app F.Eq
      [
        F.app F.Mod_op
          [
            F.app F.Add [ F.app F.Mul [ F.var "i"; F.var "i" ]; F.var "i" ];
            F.num 2;
          ];
        F.num 0;
      ]
  in
  {
    F.vc_name = "pathological.1";
    vc_sub = "pathological";
    vc_kind = F.Vc_assert;
    vc_hyps = [];
    vc_goal = F.forall "i" (F.num 0) (F.num 5_000_000) body;
  }

let grind_cfg deadline =
  { P.default_config with P.max_split = 6_000_000; max_steps = 100_000_000;
    deadline_s = deadline }

let test_prover_deadline_respected () =
  let deadline = 0.05 in
  let r = P.prove_vc ~cfg:(grind_cfg (Some deadline)) pathological_vc in
  (match r.P.pr_outcome with
  | P.Timeout _ -> ()
  | o -> Alcotest.failf "expected Timeout, got %a" P.pp_outcome o);
  Alcotest.(check bool)
    (Printf.sprintf "pr_time %.3fs within 2x of %.3fs deadline" r.P.pr_time deadline)
    true
    (r.P.pr_time <= 2.0 *. deadline)

let test_retry_ladder_full_climb () =
  (* every capability level times out, so the ladder must be climbed end
     to end, each level under its own deadline *)
  let deadline = 0.02 in
  let r =
    P.prove_vc ~cfg:(grind_cfg (Some deadline))
      ~hints:Echo.Implementation_proof.standard_hints pathological_vc
  in
  Alcotest.(check int) "three capability levels searched" 3 r.P.pr_levels;
  (match r.P.pr_outcome with
  | P.Timeout _ -> ()
  | o -> Alcotest.failf "expected the last level to time out, got %a" P.pp_outcome o);
  Alcotest.(check bool) "each level had its own deadline" true
    (r.P.pr_time >= 3.0 *. deadline)

(* A scripted clock that ticks one second per read, under a 1.5 s
   per-level budget: a level times out exactly when it reaches its 17th
   search step.  [fill.3] needs more steps than that with +apply_hyp
   alone, so that level runs out and the next (+induction) proves it.
   Such a hint count is shaped by the clock, so the proof cache must not
   record it: a warm run without a deadline equals a cold one. *)
let test_timed_out_level_moves_on_uncached () =
  let module IP = Echo.Implementation_proof in
  let env, prog = Typecheck.check (Parser.of_string tiny_src) in
  let dir = temp_run_dir "level-timeout-cache" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let t = ref (-1.0) in
      let tick () =
        t := !t +. 1.0;
        !t
      in
      let starved =
        Logic.Clock.with_source tick (fun () ->
            IP.run ~deadline_s:1.5 ~cache:(Farm.Cache.open_ ~dir) env prog)
      in
      let status name (r : IP.report) =
        List.find_map
          (fun (vr : IP.vc_result) ->
            if vr.IP.vr_vc.F.vc_name = name then
              Some (vr.IP.vr_status, vr.IP.vr_attempts)
            else None)
          r.IP.ip_results
      in
      Alcotest.(check bool) "fill.3: the level that ran out moved on" true
        (status "fill.3" starved = Some (IP.Hinted 2, 3));
      let cold = IP.run env prog in
      Alcotest.(check bool) "fill.3 needs one hint without a deadline" true
        (status "fill.3" cold = Some (IP.Hinted 1, 2));
      let warm = IP.run ~cache:(Farm.Cache.open_ ~dir) env prog in
      List.iter2
        (fun (w : IP.vc_result) (c : IP.vc_result) ->
          Alcotest.(check bool)
            (w.IP.vr_vc.F.vc_name ^ ": warm = cold")
            true
            (w.IP.vr_status = c.IP.vr_status && w.IP.vr_attempts = c.IP.vr_attempts))
        warm.IP.ip_results cold.IP.ip_results)

(* A search that raises is residue, never a failed stage.  The injected
   VC makes the prover ground-evaluate [double] at the wrong arity, so
   the interpreter throws [Invalid_argument] from inside the search. *)
let test_raising_search_is_residue () =
  let src =
    {|
program raising is

  type byte is mod 256;

  function double (x : in byte) return byte
  is
  begin
    return x + x;
  end double;

  procedure swap (a : in out byte; b : in out byte)
  --# post a = b~ and b = a~;
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
  end swap;

end raising;
|}
  in
  let raising =
    { F.vc_name = "double.raise"; vc_sub = "double"; vc_kind = F.Vc_assert;
      vc_hyps = [];
      vc_goal = F.app F.Eq [ F.app (F.Uf "double") [ F.num 1; F.num 2 ]; F.num 2 ] }
  in
  let injected = ref false in
  let h_vcs vcs =
    if !injected then vcs
    else begin
      injected := true;
      vcs @ [ raising ]
    end
  in
  let config = { O.default_config with O.oc_hooks = { O.no_hooks with O.h_vcs } } in
  let r = O.run_job ~config ~source:src () in
  (match List.assoc_opt CK.S_impl r.O.o_stages with
  | Some (O.St_ok _) -> ()
  | _ -> Alcotest.fail "implementation-proof stage did not report ok");
  match r.O.o_impl with
  | None -> Alcotest.fail "no implementation-proof report"
  | Some impl ->
      let module IP = Echo.Implementation_proof in
      Alcotest.(check bool) "other VCs present" true (impl.IP.ip_total > 1);
      List.iter
        (fun (vr : IP.vc_result) ->
          match (vr.IP.vr_vc.F.vc_name, vr.IP.vr_status) with
          | "double.raise", IP.Residual reason ->
              Alcotest.(check bool) ("residual names the raise: " ^ reason) true
                (String.starts_with ~prefix:"prover raised: " reason)
          | "double.raise", _ -> Alcotest.fail "raising VC not residual"
          | _, (IP.Auto | IP.Hinted _) -> ()
          | name, _ -> Alcotest.failf "%s did not prove" name)
        impl.IP.ip_results

(* ---------------- chaos: fault injection ---------------- *)

let test_chaos_suite_absorbed () =
  let outcomes = Defects.Chaos.run_suite (tiny_case ()) in
  Alcotest.(check int) "five probes" 5 (List.length outcomes);
  List.iter
    (fun (o : Defects.Chaos.outcome) ->
      match o.Defects.Chaos.co_check with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "probe %s: %s"
            (Defects.Chaos.probe_name o.Defects.Chaos.co_probe)
            msg)
    outcomes;
  Alcotest.(check bool) "all_ok" true (Defects.Chaos.all_ok outcomes)

let test_chaos_timeout_probe_keeps_evidence () =
  let o = Defects.Chaos.run_probe Defects.Chaos.P_prover_timeout (tiny_case ()) in
  match o.Defects.Chaos.co_report.O.o_impl with
  | Some impl ->
      Alcotest.(check bool) "timed-out VCs recorded" true
        (impl.Echo.Implementation_proof.ip_timed_out > 0);
      List.iter
        (fun (vr : Echo.Implementation_proof.vc_result) ->
          match vr.Echo.Implementation_proof.vr_status with
          | Echo.Implementation_proof.Timed_out _ ->
              Alcotest.(check bool) "full ladder on timeout" true
                (vr.Echo.Implementation_proof.vr_attempts >= 2)
          | _ -> ())
        impl.Echo.Implementation_proof.ip_results
  | None -> Alcotest.fail "degraded run lost the proof evidence"

(* A specification that cannot be extracted is the implication proof's
   fault (exit 5), as one that cannot be evaluated is — not a crash. *)
let test_unextractable_is_lemma_fault () =
  let f = Echo.Fault.of_exn (Extract.Unextractable "no loop form") in
  (match f with
  | Echo.Fault.Lemma { lemma; reason } ->
      Alcotest.(check string) "lemma" "<extraction>" lemma;
      Alcotest.(check string) "reason" "no loop form" reason
  | f -> Alcotest.failf "expected a lemma fault, got %a" Echo.Fault.pp f);
  Alcotest.(check string) "class" "lemma" (Echo.Fault.class_name f);
  Alcotest.(check int) "exit code" 5 (Echo.Fault.exit_code f)

let suites =
  [
    ( "orchestrator",
      [
        Alcotest.test_case "clean run verified" `Quick test_clean_run_verified;
        Alcotest.test_case "global deadline" `Quick test_global_deadline;
        Alcotest.test_case "checkpoint resume bit-for-bit" `Quick
          test_checkpoint_resume_bitforbit;
        Alcotest.test_case "fresh run clears checkpoints" `Quick
          test_fresh_run_clears_stale_checkpoints;
        Alcotest.test_case "unextractable is a lemma fault" `Quick
          test_unextractable_is_lemma_fault;
      ] );
    ( "prover-deadline",
      [
        Alcotest.test_case "deadline respected within 2x" `Quick
          test_prover_deadline_respected;
        Alcotest.test_case "retry ladder full climb" `Quick test_retry_ladder_full_climb;
        Alcotest.test_case "raising search is residue" `Quick
          test_raising_search_is_residue;
        Alcotest.test_case "timed-out level moves on, uncached" `Quick
          test_timed_out_level_moves_on_uncached;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "all probes absorbed" `Quick test_chaos_suite_absorbed;
        Alcotest.test_case "timeout probe keeps evidence" `Quick
          test_chaos_timeout_probe_keeps_evidence;
      ] );
  ]
