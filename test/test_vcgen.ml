(* Tests for VC generation: kinds, counts, provability of correct programs,
   failure on incorrect ones, and resource-budget behaviour. *)

open Minispark
module F = Logic.Formula
module P = Logic.Prover

let check_src src =
  let prog = Parser.of_string src in
  Typecheck.check prog

let generate ?budget src =
  let env, prog = check_src src in
  (env, prog, Vcgen.generate ?budget env prog)

let prove_all ?cfg report =
  List.map (fun vc -> P.prove_vc ?cfg vc) (Vcgen.all_vcs report)

let count_kind kind report =
  List.length (List.filter (fun vc -> vc.F.vc_kind = kind) (Vcgen.all_vcs report))

(* a small correct annotated program *)
let clamp_src =
  {|
program clamp_demo is

  type small is range 0 .. 100;

  procedure clamp (x : in integer; r : out small)
  --# post r >= 0 and r <= 100;
  is
  begin
    if x < 0 then
      r := 0;
    elsif x > 100 then
      r := 100;
    else
      r := x;
    end if;
  end clamp;

end clamp_demo;
|}

let test_clamp_all_proved () =
  let _, _, report = generate clamp_src in
  Alcotest.(check (option string)) "feasible" None report.Vcgen.r_infeasible;
  let results = prove_all report in
  List.iter
    (fun r ->
      if not (P.is_proved r) then
        Alcotest.failf "unproved VC %s: %s" r.P.pr_vc.F.vc_name
          (match r.P.pr_outcome with P.Unknown m -> m | P.Proved | P.Timeout _ -> ""))
    results;
  (* three paths, one postcondition VC each, plus range checks *)
  Alcotest.(check bool) "has postcondition VCs" true
    (count_kind F.Vc_postcondition report >= 3);
  Alcotest.(check bool) "has range checks" true
    (count_kind F.Vc_range_check report >= 3)

let test_defective_clamp_fails () =
  (* defect: upper clamp writes 101 *)
  let src = Str_replace.replace clamp_src ~find:"r := 100;" ~by:"r := 101;" in
  let _, _, report = generate src in
  let results = prove_all report in
  Alcotest.(check bool) "some VC fails" true
    (List.exists (fun r -> not (P.is_proved r)) results)

let array_sum_src =
  {|
program array_demo is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

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

end array_demo;
|}

let test_loop_invariant_vcs () =
  let _, _, report = generate array_sum_src in
  Alcotest.(check (option string)) "feasible" None report.Vcgen.r_infeasible;
  Alcotest.(check bool) "invariant init" true (count_kind F.Vc_invariant_init report >= 1);
  Alcotest.(check bool) "invariant preserve" true
    (count_kind F.Vc_invariant_preserve report >= 1);
  Alcotest.(check bool) "index checks" true (count_kind F.Vc_index_check report >= 1);
  (* automatic + hint proofs: everything should go through with the
     standard interactive hints *)
  let results =
    List.map
      (fun vc -> P.prove_vc ~hints:[ P.Hint_apply_hyp; P.Hint_induction; P.Hint_apply_hyp ] vc)
      (Vcgen.all_vcs report)
  in
  List.iter
    (fun r ->
      if not (P.is_proved r) then
        Alcotest.failf "unproved VC %s [%s]: %s" r.P.pr_vc.F.vc_name
          (F.vc_kind_name r.P.pr_vc.F.vc_kind)
          (match r.P.pr_outcome with P.Unknown m -> m | P.Proved | P.Timeout _ -> ""))
    results

let test_index_check_catches_overrun () =
  let src = Str_replace.replace array_sum_src ~find:"for i in 0 .. 7" ~by:"for i in 0 .. 8" in
  let _, _, report = generate src in
  let results = prove_all report in
  let failed_index =
    List.exists
      (fun r -> (not (P.is_proved r)) && r.P.pr_vc.F.vc_kind = F.Vc_index_check)
      results
  in
  Alcotest.(check bool) "index check fails" true failed_index

let test_call_contract () =
  let src =
    {|
program call_demo is

  function inc (x : in integer) return integer
  --# pre x >= 0;
  --# post result = x + 1;
  is
  begin
    return x + 1;
  end inc;

  procedure use_inc (a : in integer; r : out integer)
  --# pre a >= 5;
  --# post r = a + 2;
  is
    t : integer;
  begin
    t := inc (a);
    r := inc (t);
  end use_inc;

end call_demo;
|}
  in
  let _, _, report = generate src in
  Alcotest.(check bool) "call preconditions emitted" true
    (count_kind F.Vc_precondition_call report >= 2);
  let results = prove_all report in
  List.iter
    (fun r ->
      if not (P.is_proved r) then
        Alcotest.failf "unproved VC %s: %s" r.P.pr_vc.F.vc_name
          (match r.P.pr_outcome with P.Unknown m -> m | P.Proved | P.Timeout _ -> ""))
    results

let test_procedure_call_havoc () =
  let src =
    {|
program proc_call_demo is

  procedure zero (r : out integer)
  --# post r = 0;
  is
  begin
    r := 0;
  end zero;

  procedure caller (r : out integer)
  --# post r = 0;
  is
  begin
    r := 7;
    zero (r);
  end caller;

end proc_call_demo;
|}
  in
  let _, _, report = generate src in
  let results = prove_all report in
  List.iter
    (fun r ->
      if not (P.is_proved r) then
        Alcotest.failf "unproved VC %s: %s" r.P.pr_vc.F.vc_name
          (match r.P.pr_outcome with P.Unknown m -> m | P.Proved | P.Timeout _ -> ""))
    results

let test_div_check () =
  let src =
    {|
program div_demo is

  procedure half (x : in integer; d : in integer; r : out integer)
  is
  begin
    r := x / d;
  end half;

end div_demo;
|}
  in
  let _, _, report = generate src in
  Alcotest.(check int) "one div check" 1 (count_kind F.Vc_div_check report);
  let results = prove_all report in
  Alcotest.(check bool) "div check unprovable without precondition" true
    (List.exists (fun r -> not (P.is_proved r)) results)

let test_budget_infeasible () =
  (* an unrolled cascade on range-typed variables: every assignment carries
     a range check whose hypotheses contain Fibonacci-growing terms *)
  let unrolled =
    List.init 24 (fun k ->
        Printf.sprintf "    x%d := (x%d + x%d) mod 256;" ((k + 2) mod 26)
          ((k + 1) mod 26) (k mod 26))
    |> String.concat "\n"
  in
  let decls =
    List.init 26 (fun k -> Printf.sprintf "    x%d : byte;" k) |> String.concat "\n"
  in
  let src =
    Printf.sprintf
      {|
program blowup is

  type byte is range 0 .. 255;
  type vec is array (0 .. 25) of byte;

  procedure churn (seed : in vec; r : out byte)
  --# post r >= 0;
  is
%s
  begin
    x0 := seed (0);
    x1 := seed (1);
%s
    r := x0;
  end churn;

end blowup;
|}
      decls unrolled
  in
  let tiny = { Vcgen.default_budget with Vcgen.max_total_nodes = 2000 } in
  let _, _, report = generate ~budget:tiny src in
  Alcotest.(check bool) "budget exceeded" true (report.Vcgen.r_infeasible <> None);
  (* with the default budget the same program is analysable *)
  let _, _, report = generate src in
  Alcotest.(check (option string)) "feasible at full budget" None report.Vcgen.r_infeasible

let test_vc_sizes_tracked () =
  let _, _, report = generate clamp_src in
  let total = Vcgen.total_nodes report in
  Alcotest.(check bool) "positive size" true (total > 0);
  List.iter
    (fun sub ->
      List.iter
        (fun (_, n) -> Alcotest.(check bool) "every VC sized" true (n > 0))
        sub.Vcgen.sr_sizes)
    report.Vcgen.r_subs

(* ------------------------------------------------------------------ *)
(* Per-subprogram memo: a memoized [generate] equals a cold run        *)
(* ------------------------------------------------------------------ *)

let report_nodes (sr : Vcgen.sub_report) =
  List.fold_left (fun a (_, n) -> a + n) 0 sr.Vcgen.sr_sizes

(* the cold reference: [generate_sub] on every subprogram under what is
   left of the whole-program cap, with no memo *)
let cold_generate ?(budget = Vcgen.default_budget) env prog =
  let rec go acc used = function
    | [] -> { Vcgen.r_subs = List.rev acc; r_infeasible = None }
    | sp :: rest -> (
        let left = { budget with Vcgen.max_total_nodes = budget.Vcgen.max_total_nodes - used } in
        match Vcgen.generate_sub ~budget:left env prog sp with
        | sr -> go (sr :: acc) (used + report_nodes sr) rest
        | exception Vcgen.Infeasible reason ->
            { Vcgen.r_subs = List.rev acc; r_infeasible = Some reason })
  in
  go [] 0 (Ast.subprograms prog)

(* per subprogram: each VC's name, kind and formula digest, and the VC
   sizes; then why generation stopped *)
let fingerprint (r : Vcgen.report) =
  ( List.map
      (fun (sr : Vcgen.sub_report) ->
        ( sr.Vcgen.sr_sub,
          List.map
            (fun (vc : F.vc) -> (vc.F.vc_name, F.vc_kind_name vc.F.vc_kind, F.vc_digest vc))
            sr.Vcgen.sr_vcs,
          sr.Vcgen.sr_sizes ))
      r.Vcgen.r_subs,
    r.Vcgen.r_infeasible )

let fingerprint_t =
  Alcotest.(
    pair
      (list (triple string (list (triple string string string)) (list (pair string int))))
      (option string))

(* memoized [generate] against the cold reference; returns the memoized
   report and the memo's events during it *)
let check_identity what ?budget env prog =
  let s0 = Vcgen.memo_stats () in
  let warm = Vcgen.generate ?budget env prog in
  let d = Memo.diff (Vcgen.memo_stats ()) s0 in
  Alcotest.check fingerprint_t (what ^ ": memoized = cold") (fingerprint (cold_generate ?budget env prog))
    (fingerprint warm);
  (warm, d)

let aes_annotated =
  lazy
    (let snapshots, _ = Aes.Aes_refactoring.run ~kat_gate:false () in
     let final = (List.nth snapshots (List.length snapshots - 1)).Aes.Aes_refactoring.sn_program in
     snd (Typecheck.check (Aes.Aes_annotations.annotate final)))

(* the serve benchmark's benign edit: a trivially true assert prepended
   to one subprogram, printed and re-parsed *)
let assert_edit prog name =
  Pretty.program_to_string
    (Ast.update_sub prog name (fun sp ->
         { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body }))

let test_memo_aes () =
  let prog = Lazy.force aes_annotated in
  let env = fst (Typecheck.check prog) in
  let n = List.length (Ast.subprograms prog) in
  ignore (check_identity "AES" env prog);
  let _, d = check_identity "AES again" env prog in
  Alcotest.(check int) "second run: every subprogram hits" n d.Memo.hits;
  Alcotest.(check int) "second run: no miss" 0 d.Memo.misses

let test_memo_aes_edits () =
  let prog = Lazy.force aes_annotated in
  ignore (Vcgen.generate (fst (Typecheck.check prog)) prog);
  let edits =
    List.filter_map
      (fun (sp : Ast.subprogram) ->
        let src = assert_edit prog sp.Ast.sub_name in
        match Typecheck.check (Parser.of_string src) with
        | checked -> Some (sp.Ast.sub_name, checked)
        | exception _ -> None)
      (Ast.subprograms prog)
  in
  Alcotest.(check bool) "most subprograms admit the edit" true (List.length edits > 20);
  List.iter
    (fun (name, (env, edited)) ->
      let _, d = check_identity ("edit " ^ name) env edited in
      (* the edited subprogram always misses; what it does not reach hits *)
      Alcotest.(check bool) (name ^ ": edited subprogram misses") true (d.Memo.misses >= 1);
      Alcotest.(check bool) (name ^ ": unrelated subprograms hit") true (d.Memo.hits > 0))
    edits

let callee_src post =
  Printf.sprintf
    {|
program contract_demo is

  function inc (x : in integer) return integer
  --# post %s;
  is
  begin
    return x + 1;
  end inc;

  procedure twice (x : in integer; r : out integer)
  --# post r > x;
  is
  begin
    r := inc (inc (x));
  end twice;

  procedure alone (y : in integer; r : out integer)
  --# post r = y;
  is
  begin
    r := y;
  end alone;

end contract_demo;
|}
    post

let vc_digests_of name (r : Vcgen.report) =
  List.assoc name (Vcgen.vc_digests r)

let test_memo_callee_post () =
  let env, prog = check_src (callee_src "result = x + 1") in
  let before, _ = check_identity "original" env prog in
  let env', prog' = check_src (callee_src "result >= x") in
  let after, d = check_identity "callee post edited" env' prog' in
  (* inc and its caller twice miss; alone reaches neither and hits *)
  Alcotest.(check int) "callee and caller miss" 2 d.Memo.misses;
  Alcotest.(check int) "the unrelated procedure hits" 1 d.Memo.hits;
  Alcotest.(check bool) "the caller's VCs changed" true
    (vc_digests_of "twice" before <> vc_digests_of "twice" after);
  Alcotest.(check (list string)) "the unrelated VCs did not"
    (vc_digests_of "alone" before) (vc_digests_of "alone" after)

let const_src k =
  Printf.sprintf
    {|
program const_demo is

  limit : constant integer := %d;

  procedure cap (x : in integer; r : out integer)
  --# post r <= limit;
  is
  begin
    if x > limit then
      r := limit;
    else
      r := x;
    end if;
  end cap;

end const_demo;
|}
    k

let test_memo_constant () =
  let env, prog = check_src (const_src 7) in
  let before, _ = check_identity "limit 7" env prog in
  let env', prog' = check_src (const_src 8) in
  let after, d = check_identity "limit 8" env' prog' in
  Alcotest.(check int) "a constant edit misses" 1 d.Memo.misses;
  Alcotest.(check bool) "the VCs see the new value" true
    (vc_digests_of "cap" before <> vc_digests_of "cap" after)

let chain_src =
  {|
program chain_demo is

  type small is range 0 .. 100;

  procedure p1 (x : in integer; r : out small)
  --# post r >= 0;
  is
  begin
    if x < 0 then r := 0; elsif x > 100 then r := 100; else r := x; end if;
  end p1;

  procedure p2 (x : in integer; r : out small)
  --# post r <= 100;
  is
  begin
    if x < 0 then r := 0; elsif x > 100 then r := 100; else r := x; end if;
  end p2;

  procedure p3 (x : in integer; r : out small)
  --# post r >= 0 and r <= 100;
  is
  begin
    if x < 0 then r := 0; elsif x > 100 then r := 100; else r := x; end if;
  end p3;

end chain_demo;
|}

let test_memo_total_budget () =
  let env, prog = check_src chain_src in
  let full = cold_generate env prog in
  let sizes = List.map report_nodes full.Vcgen.r_subs in
  (* a cap that admits p1 and trips inside p2 *)
  let tight =
    { Vcgen.default_budget with
      Vcgen.max_total_nodes = List.nth sizes 0 + (List.nth sizes 1 / 2) }
  in
  let reason = (cold_generate ~budget:tight env prog).Vcgen.r_infeasible in
  Alcotest.(check (option string)) "the cap trips in p2"
    (Some "total VC budget exceeded in p2") reason;
  let cold, _ = check_identity "tight, memo cold for p2" ~budget:tight env prog in
  ignore (check_identity "full budget" env prog);
  let warm, d = check_identity "tight, p2 replayed from the memo" ~budget:tight env prog in
  Alcotest.(check int) "p1 and p2 both hit" 2 d.Memo.hits;
  Alcotest.(check (option string)) "cold and warm stop for the same reason"
    cold.Vcgen.r_infeasible warm.Vcgen.r_infeasible

let suites =
  [ ( "vcgen",
      [ Alcotest.test_case "clamp: all VCs proved" `Quick test_clamp_all_proved;
        Alcotest.test_case "defective clamp fails" `Quick test_defective_clamp_fails;
        Alcotest.test_case "loop invariant VCs" `Quick test_loop_invariant_vcs;
        Alcotest.test_case "index overrun caught" `Quick test_index_check_catches_overrun;
        Alcotest.test_case "function call contracts" `Quick test_call_contract;
        Alcotest.test_case "procedure call havoc" `Quick test_procedure_call_havoc;
        Alcotest.test_case "division check" `Quick test_div_check;
        Alcotest.test_case "budget infeasibility" `Quick test_budget_infeasible;
        Alcotest.test_case "VC sizes tracked" `Quick test_vc_sizes_tracked ] );
    ( "vcgen:memo",
      [ Alcotest.test_case "AES: memoized equals cold" `Slow test_memo_aes;
        Alcotest.test_case "AES: every one-subprogram edit" `Slow test_memo_aes_edits;
        Alcotest.test_case "callee postcondition edit misses the caller" `Quick
          test_memo_callee_post;
        Alcotest.test_case "constant edit misses" `Quick test_memo_constant;
        Alcotest.test_case "whole-program cap replayed on a hit" `Quick
          test_memo_total_budget ] ) ]
