(* Certification layer: per-step equivalence VCs plus the differential
   fuzzing oracle.  Covers the certificate decision procedure on small
   programs, refutation of the seeded defect corpus, divergence detection
   through the interpreter fuel bound, and proof-cache reuse. *)

open Minispark
module C = Refactor.Certify

let check_src src = Typecheck.check (Parser.of_string src)

let base_src =
  {|
program base is

  type byte is mod 256;
  type vec is array (0 .. 3) of byte;

  function double (x : in byte) return byte
  is
    t : byte;
  begin
    t := x + x;
    return t;
  end double;

  procedure scale (a : in out vec)
  is
  begin
    a (0) := a (0) * 2;
    a (1) := a (1) * 2;
    a (2) := a (2) * 2;
    a (3) := a (3) * 2;
  end scale;

end base;
|}

let certify_pair ?(cfg = C.default_config ()) before_src after_src =
  let before = check_src before_src and after = check_src after_src in
  fst (C.certify cfg ~step_name:"test" ~before ~after)

let is_certified = function C.Certified _ -> true | _ -> false

let test_annotation_only () =
  let after =
    Str_replace.replace base_src ~find:"t := x + x;"
      ~by:"t := x + x;
    --# assert t >= 0;"
  in
  match certify_pair base_src after with
  | C.Certified [ (_, C.M_identical) ] -> ()
  | c -> Alcotest.failf "expected identical certificate, got %s" (C.describe c)

let test_vc_certifies_inline_temp () =
  (* remove the temporary: both sides translate to the same term, so the
     equivalence VC is discharged statically *)
  let after =
    Str_replace.replace base_src ~find:"t := x + x;
    return t;"
      ~by:"return x + x;"
  in
  match certify_pair base_src after with
  | C.Certified [ ("double", C.M_vc n) ] ->
      Alcotest.(check bool) "at least one VC" true (n >= 1)
  | c -> Alcotest.failf "expected VC certificate, got %s" (C.describe c)

let test_oracle_refutes_broken_rewrite () =
  let after = Str_replace.replace base_src ~find:"t := x + x;" ~by:"t := x + 1;" in
  match certify_pair base_src after with
  | C.Refuted cx ->
      Alcotest.(check string) "names the sub" "double" cx.C.cx_sub;
      Alcotest.(check bool) "concrete inputs" true (String.length cx.C.cx_inputs > 0)
  | c -> Alcotest.failf "expected refutation, got %s" (C.describe c)

let test_oracle_refutes_divergence () =
  (* a rewrite that introduces an infinite loop must be a counterexample,
     not a hang *)
  let after =
    Str_replace.replace base_src ~find:"a (3) := a (3) * 2;"
      ~by:"while a (3) /= a (3) + 1 loop a (3) := a (3) * 2; end loop;"
  in
  let cfg = { (C.default_config ()) with C.cf_fuel = 50_000 } in
  match certify_pair ~cfg base_src after with
  | C.Refuted cx ->
      Alcotest.(check bool) "mentions fuel" true
        (Astring.String.is_infix ~affix:"fuel" cx.C.cx_after)
  | c -> Alcotest.failf "expected divergence refutation, got %s" (C.describe c)

let test_oracle_certifies_loop_rewrite () =
  (* loopy bodies are out of reach of the static side but the oracle
     certifies the (correct) reroll *)
  let after =
    Str_replace.replace base_src
      ~find:"a (0) := a (0) * 2;
    a (1) := a (1) * 2;
    a (2) := a (2) * 2;
    a (3) := a (3) * 2;"
      ~by:"for i in 0 .. 3 loop
    a (i) := a (i) * 2;
    end loop;"
  in
  match certify_pair base_src after with
  | C.Certified [ ("scale", C.M_oracle { trials; _ }) ] ->
      Alcotest.(check bool) "ran trials" true (trials > 0)
  | c -> Alcotest.failf "expected oracle certificate, got %s" (C.describe c)

let test_zero_trials_is_unknown () =
  (* a zero-trial oracle agrees vacuously; that must surface as Unknown,
     never as a Certified step with no evidence behind it *)
  let after =
    Str_replace.replace base_src
      ~find:"a (0) := a (0) * 2;
    a (1) := a (1) * 2;
    a (2) := a (2) * 2;
    a (3) := a (3) * 2;"
      ~by:"for i in 0 .. 3 loop
    a (i) := a (i) * 2;
    end loop;"
  in
  let cfg = { (C.default_config ()) with C.cf_trials = 0 } in
  match certify_pair ~cfg base_src after with
  | C.Unknown _ -> ()
  | c -> Alcotest.failf "expected Unknown on zero trials, got %s" (C.describe c)

let test_vc_cache_reuse () =
  let after =
    Str_replace.replace base_src ~find:"t := x + x;
    return t;"
      ~by:"return x + x;"
  in
  let dir = Filename.temp_file "certify_cache" "" in
  Sys.remove dir;
  let cache = Farm.Cache.open_ ~dir in
  let cfg = { (C.default_config ()) with C.cf_cache = Some cache } in
  let before = check_src base_src and after = check_src after in
  let _, s1 = C.certify cfg ~step_name:"cold" ~before ~after in
  let cache2 = Farm.Cache.open_ ~dir in
  let cfg2 = { cfg with C.cf_cache = Some cache2 } in
  let c2, s2 = C.certify cfg2 ~step_name:"warm" ~before ~after in
  Alcotest.(check bool) "still certified" true (is_certified c2);
  Alcotest.(check bool) "cold run missed" true (s1.C.ct_cache_misses > 0);
  Alcotest.(check int) "warm run all hits" s1.C.ct_vcs_generated s2.C.ct_cache_hits;
  Alcotest.(check int) "warm run no misses" 0 s2.C.ct_cache_misses

(* an entry recorded under an older key — ":certify:v1", before
   quantifier instantiation was pattern-directed, or ":certify:v2", before
   a discharged instance's conjuncts became facts of their own — is a
   miss: the VC is re-proved and the certificate is the cold run's, even
   where the old entry contradicts the proof *)
let test_old_entries_miss version () =
  let after =
    Str_replace.replace base_src ~find:"t := x + x;
    return t;"
      ~by:"return x + x;"
  in
  let before = check_src base_src and after = check_src after in
  let dir = Filename.temp_file "certify_cache" "" in
  Sys.remove dir;
  let cfg cache = { (C.default_config ()) with C.cf_cache = Some cache } in
  let c1, s1 = C.certify (cfg (Farm.Cache.open_ ~dir)) ~step_name:"cold" ~before ~after in
  let entries = Test_farm.index_entries dir in
  Alcotest.(check bool) "the cold run recorded entries" true (entries <> []);
  let old_dir = Filename.temp_file "certify_cache" "" in
  Sys.remove old_dir;
  let old = Farm.Cache.open_ ~dir:old_dir in
  List.iter
    (fun (key, status) ->
      match Astring.String.cut ~rev:true ~sep:":certify:v3" key with
      | Some (digest, "") ->
          Farm.Cache.add old (digest ^ ":certify:" ^ version)
            (Test_farm.contrary_entry status)
      | _ -> Alcotest.failf "key %s lacks the v3 suffix" key)
    entries;
  Alcotest.(check bool) (version ^ " entries saved") true (Farm.Cache.save old = Ok ());
  let c2, s2 =
    C.certify (cfg (Farm.Cache.open_ ~dir:old_dir)) ~step_name:version ~before ~after
  in
  Alcotest.(check int) ("no " ^ version ^ " entry hits") 0 s2.C.ct_cache_hits;
  Alcotest.(check int) "every VC misses" s1.C.ct_cache_misses s2.C.ct_cache_misses;
  Alcotest.(check int) "re-proved as cold" s1.C.ct_vcs_proved s2.C.ct_vcs_proved;
  Alcotest.(check string) "the cold certificate" (C.describe c1) (C.describe c2)

let test_add_stats_sums_seconds () =
  let a = { C.zero_stats with C.ct_steps = 1; ct_vc_seconds = 1.5; ct_oracle_seconds = 0.25 } in
  let b = { C.zero_stats with C.ct_steps = 2; ct_vc_seconds = 2.5; ct_oracle_seconds = 0.5 } in
  let s = C.add_stats a b in
  let feq = Alcotest.(check (float 1e-9)) in
  Alcotest.(check int) "steps add" 3 s.C.ct_steps;
  feq "vc seconds add" 4.0 s.C.ct_vc_seconds;
  feq "oracle seconds add" 0.75 s.C.ct_oracle_seconds

(* ------------------------------------------------------------------ *)
(* Oracle run memo: the key covers the target's behaviour closure       *)
(* ------------------------------------------------------------------ *)

module E = Refactor.Equivalence

(* a freshly spawned domain starts with empty per-domain memos *)
let cold f = Domain.join (Domain.spawn f)

let closure_src =
  {|
program closure is

  type small is range 0 .. 15;
  k : constant integer := 3;

  function g (x : in integer) return integer
  is
  begin
    return x + 1;
  end g;

  function f (x : in small) return integer
  is
    t : small;
  begin
    return g (x) + k + t;
  end f;

  function u (x : in integer) return integer
  is
  begin
    return x * 2;
  end u;

end closure;
|}

(* each edit leaves [f]'s own declaration untouched but changes what a run
   of [f] computes; a run memo keyed on [f]'s declaration alone would
   answer the edited version with the original's results *)
let closure_edits =
  [
    ("callee g", "return x + 1;", "return x + 2;");
    ("global constant k", "k : constant integer := 3;", "k : constant integer := 4;");
    (* shifts the default value of f's local [t] *)
    ("range type of f's parameter", "type small is range 0 .. 15;",
     "type small is range 1 .. 15;");
  ]

let check_f before after () =
  match E.oracle ~seed:42 ~trials:64 ~fuel:Interp.default_fuel before after "f" with
  | E.Agree { trials; _ } -> Printf.sprintf "equivalent %d" trials
  | E.Refuted cx -> E.counterexample_to_string cx
  | E.Undecided why -> why

let test_closure_key_soundness () =
  let before = check_src closure_src in
  let cfg = C.default_config ~entries:[ "f" ] () in
  List.iter
    (fun (what, find, by) ->
      let after = check_src (Str_replace.replace closure_src ~find ~by) in
      let certify () =
        C.describe (fst (C.certify cfg ~step_name:what ~before ~after))
      in
      let cold_sub = cold (check_f before after) and cold_cert = cold certify in
      Alcotest.(check bool)
        (what ^ ": cold oracle refutes") false
        (Astring.String.is_prefix ~affix:"equivalent" cold_sub);
      Alcotest.(check bool)
        (what ^ ": cold certificate refutes") true
        (Astring.String.is_prefix ~affix:"refuted" cold_cert);
      (* warm: the original's runs of f are memoized first *)
      ignore (check_f before before ());
      for _ = 1 to 2 do
        Alcotest.(check string) (what ^ ": warm oracle = cold") cold_sub
          (check_f before after ());
        Alcotest.(check string) (what ^ ": warm certificate = cold") cold_cert
          (certify ())
      done)
    closure_edits

let test_closure_key_reuse () =
  let before = check_src closure_src in
  let after =
    check_src (Str_replace.replace closure_src ~find:"return x * 2;" ~by:"return x * 3;")
  in
  let hits, misses, verdict =
    cold (fun () ->
        let s0 = E.run_memo_stats () in
        let verdict = check_f before after () in
        let d = Memo.diff (E.run_memo_stats ()) s0 in
        (d.Memo.hits, d.Memo.misses, verdict))
  in
  Alcotest.(check string) "unrelated edit keeps f equivalent" "equivalent 16" verdict;
  (* per input: the edited version's run misses, the original's hits it *)
  Alcotest.(check int) "one miss per input" 16 misses;
  Alcotest.(check int) "one hit per input" 16 hits

(* ------------------------------------------------------------------ *)
(* Decided routes: closure identity, the table scheme, reused verdicts *)
(* ------------------------------------------------------------------ *)

module T = Refactor.Transform

let certify_step ?(cfg = C.default_config ()) ?claim before after =
  match
    C.certify_steps cfg
      [ { C.sp_name = "step"; sp_before = before; sp_after = after; sp_claim = claim } ]
  with
  | [ (cert, stats) ] -> (cert, stats)
  | _ -> assert false

let method_of name = function
  | C.Certified ms -> List.assoc_opt name ms
  | C.Refuted _ | C.Unknown _ -> None

let expect_refuted what = function
  | C.Refuted _ -> ()
  | c -> Alcotest.failf "%s: expected a refutation, got %s" what (C.describe c)

(* evidence for [name] that no closure, scheme or reuse rule gave: the
   oracle ran (or an equivalence VC proved it) *)
let expect_sampled what name cert =
  match method_of name cert with
  | Some (C.M_oracle _ | C.M_vc _) -> ()
  | _ -> Alcotest.failf "%s: expected %s sampled, got %s" what name (C.describe cert)

let unused_fun =
  {|
  function unused (x : in integer) return integer
  is
  begin
    return x;
  end unused;
|}

(* [src] with one more subprogram, which changes the program's shape and
   so makes the entry points targets *)
let with_unused src ~before_end =
  Str_replace.replace src ~find:before_end ~by:(unused_fun ^ before_end)

let test_closure_unrelated_addition () =
  let before = check_src closure_src in
  let after = check_src (with_unused closure_src ~before_end:"end closure;") in
  let cfg = C.default_config ~entries:[ "f" ] () in
  let cert, stats = certify_step ~cfg before after in
  Alcotest.(check string) "f certified by closure" "certified (f closure)" (C.describe cert);
  Alcotest.(check int) "no trials" 0 stats.C.ct_oracle_trials;
  Alcotest.(check (pair int int)) "decided, sampled" (1, 0) (stats.C.ct_decided, stats.C.ct_sampled)

let test_closure_edit_inside () =
  (* g is in f's closure: an edit there (even a harmless one) is sampled *)
  let before = check_src closure_src in
  let after =
    check_src
      (with_unused ~before_end:"end closure;"
         (Str_replace.replace closure_src ~find:"return x + 1;" ~by:"return 1 + x;"))
  in
  let cfg = C.default_config ~entries:[ "f" ] () in
  let cert, _ = certify_step ~cfg before after in
  expect_sampled "edit in the closure" "f" cert;
  expect_sampled "edit in the closure" "g" cert

let init_src =
  {|
program init is

  type vec is array (0 .. 3) of integer;

  function g (x : in integer) return integer
  is
  begin
    return x + 1;
  end g;

  k : constant integer := g (1);
  v : constant vec := (1, 2, 3, 4);

  function f (x : in integer) return integer
  is
  begin
    return x * 2;
  end f;

end init;
|}

let test_closure_initialiser_calls_changed () =
  (* f reads neither k nor g, but k's initialiser calls g *)
  let before = check_src init_src in
  let after =
    check_src
      (with_unused ~before_end:"end init;"
         (Str_replace.replace init_src ~find:"return x + 1;" ~by:"return 1 + x;"))
  in
  let cfg = C.default_config ~entries:[ "f" ] () in
  let cert, _ = certify_step ~cfg before after in
  expect_sampled "initialiser calls the changed g" "f" cert

let test_closure_initialisation_raises () =
  (* a new constant whose initialiser raises: f's closure is unchanged,
     but no run of the new version gets past global initialisation *)
  let before = check_src init_src in
  let after =
    check_src
      (Str_replace.replace init_src ~find:"v : constant vec := (1, 2, 3, 4);"
         ~by:"v : constant vec := (1, 2, 3, 4);\n  z : constant integer := v (7);")
  in
  Alcotest.(check bool) "f's closure is unchanged" true
    (E.closure_digest (snd before) "f" = E.closure_digest (snd after) "f");
  let cfg = C.default_config ~entries:[ "f" ] () in
  expect_refuted "initialisation raises in one version" (fst (certify_step ~cfg before after))

(* an identity table over bytes, read at [site] in [g] *)
let table_src ?(elt = "byte") ?(entries = List.init 256 string_of_int) ?(decls = "")
    ?(locals = "") ~params ~ret site =
  Printf.sprintf
    {|
program tabs is

  type byte is mod 256;
  type nib is mod 4;
  type tbl is array (0 .. 255) of %s;
  t : constant tbl := (%s);
%s
  function g (%s) return %s
  is
  %s
  begin
    return %s;
  end g;

end tabs;
|}
    elt (String.concat ", " entries) decls params ret locals site

let reverse ?(helpers = []) src replacement =
  let before = check_src src in
  let tr =
    Refactor.Table_reverse.reverse ~table:"t" ~index_var:"x"
      ~replacement:(Parser.expr_of_string replacement) ~helpers ()
  in
  let env, prog, claim = T.apply tr (fst before) (snd before) in
  Alcotest.(check bool) "the step claims a table reversal" true
    (match claim with Some (T.Table_reversal _) -> true | _ -> false);
  (before, (env, prog), claim)

let test_scheme_certifies () =
  let before, after, claim =
    reverse (table_src ~params:"b : in byte" ~ret:"byte" "t (b)") "x"
  in
  let cert, stats = certify_step ?claim before after in
  Alcotest.(check string) "certified by the scheme" "certified (g scheme:reverse_table)"
    (C.describe cert);
  Alcotest.(check int) "no trials" 0 stats.C.ct_oracle_trials

let test_scheme_integer_index () =
  (* i may leave 0 .. 255: the table raised there, the replacement
     returns a value *)
  let before, after, claim =
    reverse (table_src ~params:"i : in integer" ~ret:"byte" "t (i)") "x"
  in
  (match certify_step ?claim before after with
  | C.Refuted cx, _ ->
      Alcotest.(check bool) ("the table raised: " ^ cx.C.cx_before) true
        (Astring.String.is_prefix ~affix:"raised" cx.C.cx_before)
  | c, _ -> Alcotest.failf "integer index: expected a refutation, got %s" (C.describe c))

let test_scheme_shadowed_helper () =
  (* the replacement reads the helper table h; g's local h captures it,
     and both read as the same indexing *)
  let helper =
    match
      (Parser.of_string
         (Printf.sprintf
            "program p is type byte is mod 256; type tbl is array (0 .. 255) of byte; \
             h : constant tbl := (%s); end p;"
            (String.concat ", " (List.init 256 string_of_int))))
        .Ast.prog_decls
    with
    | [ _; _; d ] -> d
    | _ -> assert false
  in
  let before, after, claim =
    reverse ~helpers:[ helper ]
      (table_src ~params:"b : in byte" ~ret:"byte" ~locals:"h : tbl;" "t (b)")
      "h (x)"
  in
  expect_refuted "a local shadows the helper" (fst (certify_step ?claim before after))

let test_scheme_short_circuit_index () =
  (* b / d raises at d = 0; the replacement never evaluates it *)
  let before, after, claim =
    reverse
      (table_src ~elt:"boolean" ~entries:(List.init 256 (fun _ -> "false"))
         ~params:"b : in nib; d : in nib" ~ret:"boolean" "t (b / d)")
      "false and then x >= 0"
  in
  expect_refuted "index only under and then" (fst (certify_step ?claim before after))

let test_scheme_replay_mismatch () =
  let src = table_src ~params:"b : in byte" ~ret:"byte" "t (b)" in
  let before, _, claim = reverse src "x" in
  (* the claim, on a step whose after is not its rewrite *)
  let after =
    check_src
      (Str_replace.replace
         (Str_replace.replace src ~find:"return t (b);" ~by:"return b + 1;")
         ~find:(Printf.sprintf "  t : constant tbl := (%s);\n"
                  (String.concat ", " (List.init 256 string_of_int)))
         ~by:"")
  in
  expect_refuted "replay does not reproduce after" (fst (certify_step ?claim before after))

let test_scheme_parameter_named_like_table () =
  (* g's parameter t is indexed where the global table t is not read:
     the rewrite would replace g's read of its argument *)
  let src = table_src ~params:"t : in tbl; b : in byte" ~ret:"byte" "t (b)" in
  let before = check_src src in
  (match
     T.apply
       (Refactor.Table_reverse.reverse ~table:"t" ~index_var:"x"
          ~replacement:(Parser.expr_of_string "x") ())
       (fst before) (snd before)
   with
  | _ -> Alcotest.fail "reverse rewrote a parameter's lookup"
  | exception T.Not_applicable _ -> ());
  (* the claim, on the step that rewrite would have made *)
  let after =
    check_src
      (Str_replace.replace
         (Str_replace.replace src ~find:"return t (b);" ~by:"return b;")
         ~find:(Printf.sprintf "  t : constant tbl := (%s);\n"
                  (String.concat ", " (List.init 256 string_of_int)))
         ~by:"")
  in
  let claim =
    T.Table_reversal
      { table = "t"; index_var = "x"; replacement = Parser.expr_of_string "x"; helpers = [] }
  in
  expect_refuted "a parameter named like the table" (fst (certify_step ~claim before after))

let reroll_src =
  Str_replace.replace base_src
    ~find:"a (0) := a (0) * 2;
    a (1) := a (1) * 2;
    a (2) := a (2) * 2;
    a (3) := a (3) * 2;"
    ~by:"for i in 0 .. 3 loop
    a (i) := a (i) * 2;
    end loop;"

let agreement ?(trials = 48) ?(after_digest = "") before after =
  T.Oracle_agreement
    { target = "scale"; trials; exhaustive = false; fuel = (C.default_config ()).C.cf_fuel;
      before_digest = Share.decls_digest (snd before);
      after_digest =
        (if after_digest = "" then Share.decls_digest (snd after) else after_digest) }

let test_reuse_certifies () =
  let before = check_src base_src and after = check_src reroll_src in
  let cert, stats = certify_step ~claim:(agreement before after) before after in
  Alcotest.(check string) "reused" "certified (scale reused:oracle:48)" (C.describe cert);
  Alcotest.(check int) "no trials" 0 stats.C.ct_oracle_trials;
  Alcotest.(check (pair int int)) "decided, sampled" (0, 1) (stats.C.ct_decided, stats.C.ct_sampled)

let test_reuse_needs_enough_trials () =
  let before = check_src base_src in
  let broken =
    check_src (Str_replace.replace reroll_src ~find:"a (i) * 2" ~by:"a (i) * 3")
  in
  expect_refuted "a 10-trial claim"
    (fst (certify_step ~claim:(agreement ~trials:10 before broken) before broken));
  (* a claim bound to other programs is sampled too *)
  let after = check_src reroll_src in
  expect_sampled "a claim about other programs" "scale"
    (fst (certify_step ~claim:(agreement ~after_digest:"elsewhere" before after) before after))

(* ------------------------------------------------------------------ *)
(* Seeded defect corpus: every real defect must be refuted              *)
(* ------------------------------------------------------------------ *)

(* The certificates recorded when the interpreter was a tree-walker, one
   line per defect: id, then the counterexample's sub, inputs, before
   and after for a refuted defect, or the description of a certified
   one — tab-separated. *)
let recorded_defect_certificates () =
  let ic = open_in (Fixture.test_file "defect_counterexamples.tsv") in
  let rec lines acc =
    match input_line ic with
    | l -> lines (String.split_on_char '\t' l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  List.map
    (function id :: fields -> (int_of_string id, fields) | [] -> assert false)
    (lines [])

let test_defect_corpus () =
  let prog = snd (Aes.Aes_impl.checked ()) in
  let before = Typecheck.check prog in
  let cfg =
    C.default_config ~entries:[ "encrypt_block"; "decrypt_block" ] ()
  in
  let recorded = recorded_defect_certificates () in
  let defects = Defects.Seed.seed_all prog in
  Alcotest.(check int) "one recorded certificate per defect" (List.length defects)
    (List.length recorded);
  List.iter
    (fun (d : Defects.Seed.defect) ->
      let after = Typecheck.check (d.Defects.Seed.d_apply prog) in
      let cert, _ =
        C.certify cfg
          ~step_name:(Printf.sprintf "defect-%d" d.Defects.Seed.d_id)
          ~before ~after
      in
      let expected = List.assoc d.Defects.Seed.d_id recorded in
      if d.Defects.Seed.d_benign then begin
        Alcotest.(check bool)
          (Printf.sprintf "benign defect %d certifies" d.Defects.Seed.d_id)
          true (is_certified cert);
        Alcotest.(check (list string))
          (Printf.sprintf "benign defect %d certificate" d.Defects.Seed.d_id)
          expected [ C.describe cert ]
      end
      else
        match cert with
        | C.Refuted cx ->
            Alcotest.(check (list string))
              (Printf.sprintf "defect %d counterexample (sub, inputs, before, after)"
                 d.Defects.Seed.d_id)
              expected
              [ cx.C.cx_sub; cx.C.cx_inputs; cx.C.cx_before; cx.C.cx_after ]
        | c ->
            Alcotest.failf "defect %d (%s) not refuted: %s" d.Defects.Seed.d_id
              d.Defects.Seed.d_describe (C.describe c))
    defects

(* ------------------------------------------------------------------ *)
(* Echo integration: fault class, orchestrated gate, full AES script    *)
(* ------------------------------------------------------------------ *)

module O = Echo.Orchestrator
module CK = Echo.Checkpoint

let test_refutation_fault_class () =
  let cx = { C.cx_sub = "f"; cx_inputs = "1"; cx_before = "2"; cx_after = "3" } in
  let f = Echo.Fault.of_exn (C.Refutation { rf_step = "reroll(f)"; rf_cx = cx }) in
  (match f with
  | Echo.Fault.Certification { cert_step; _ } ->
      Alcotest.(check string) "names the step" "reroll(f)" cert_step
  | _ -> Alcotest.fail "Refutation not mapped to a Certification fault");
  Alcotest.(check string) "fault class" "certify" (Echo.Fault.class_name f);
  Alcotest.(check int) "exit code" 7 (Echo.Fault.exit_code f);
  Alcotest.(check bool) "not transient" false (Echo.Fault.is_transient f)

(* a case study over [base_src] applying one real transformation through
   [History.apply], so the orchestrated certify stage sees a genuine
   certificate (or refutation) *)
let rewrite_transform ~name ~find ~by =
  Refactor.Transform.make ~name ~category:Refactor.Transform.Modify_computation
    ~describe:name
    (fun _env _prog -> Parser.of_string (Str_replace.replace base_src ~find ~by))

let script_case script : Echo.Pipeline.case_study =
  let env, prog = check_src base_src in
  let spec = Extract.extract_program env prog in
  {
    Echo.Pipeline.cs_name = "certify-tiny";
    cs_refactor =
      (fun ?certify () ->
        let h = Refactor.History.create env prog in
        script ?certify h;
        ([ (env, prog); Refactor.History.current h ], h));
    cs_annotate = (fun p -> p);
    cs_original_spec = spec;
    cs_synonyms = [];
    cs_lemmas =
      (fun ~extracted:_ ->
        [ Echo.Implication.structural ~name:"base_struct" ~original:"base"
            ~extracted:"base" ~premises:[] ~check:(fun () -> true) () ]);
  }

let echo_case transform =
  script_case (fun ?certify h -> ignore (Refactor.History.apply ?certify h transform))

let test_orchestrated_certify_gate () =
  let case =
    echo_case
      (rewrite_transform ~name:"inline-temp(double)"
         ~find:"t := x + x;
    return t;"
         ~by:"return x + x;")
  in
  let config = { O.default_config with O.oc_certify = true } in
  let r = O.run ~config case in
  (match r.O.o_certify with
  | Some a ->
      Alcotest.(check int) "one step audited" 1 a.C.au_steps;
      Alcotest.(check int) "certified" 1 a.C.au_certified;
      Alcotest.(check int) "none refuted" 0 a.C.au_refuted
  | None -> Alcotest.fail "no certification audit in the report");
  Alcotest.(check bool) "certify stage ran ok" true
    (List.exists
       (fun (s, st) ->
         CK.stage_name s = "certify"
         && match st with O.St_ok _ -> true | _ -> false)
       r.O.o_stages)

let test_orchestrated_refutation_is_certification_fault jobs () =
  let case =
    echo_case
      (rewrite_transform ~name:"break(double)" ~find:"t := x + x;"
         ~by:"t := x + 1;")
  in
  let config = { O.default_config with O.oc_certify = true; oc_jobs = jobs } in
  let r = O.run ~config case in
  match r.O.o_verdict with
  | O.Failed (Echo.Fault.Certification _ as f) ->
      Alcotest.(check int) "exit code 7" 7 (Echo.Fault.exit_code f)
  | v -> Alcotest.failf "expected Failed (Certification), got %a" O.pp_verdict v

(* the acceptance bar: every step of the full AES script yields a
   recorded certificate and every one is Certified — and the oracle's
   memos change nothing: two runs in this process (the second fully
   warm) and one in a fresh domain (cold memos) agree exactly *)
let test_aes_script_fully_certified () =
  let cfg = C.default_config ~entries:[ "encrypt_block"; "decrypt_block" ] () in
  let certify () =
    let _, h = Aes.Aes_refactoring.run ~certify:cfg () in
    ( h,
      Refactor.History.certificates h,
      (Refactor.History.certification_stats h).C.ct_oracle_trials )
  in
  let h, certs, trials = certify () in
  let _, certs_warm, trials_warm = certify () in
  let _, certs_cold, trials_cold = cold certify in
  Alcotest.(check bool) "warm certificates = first run" true (certs_warm = certs);
  Alcotest.(check bool) "cold certificates = first run" true (certs_cold = certs);
  Alcotest.(check int) "warm oracle trials" trials trials_warm;
  Alcotest.(check int) "cold oracle trials" trials trials_cold;
  let steps = Refactor.History.step_count h in
  Alcotest.(check bool) "the paper's full script (>= 50 steps)" true (steps >= 50);
  Alcotest.(check int) "every step carries a certificate" steps (List.length certs);
  List.iter
    (fun (i, name, cert) ->
      if not (is_certified cert) then
        Alcotest.failf "step %d (%s) not certified: %s" i name (C.describe cert))
    certs;
  let s = Refactor.History.certification_stats h in
  Alcotest.(check int) "stats count every step" steps s.C.ct_steps;
  Alcotest.(check bool) "oracle exercised" true (s.C.ct_oracle_trials > 0)

(* ------------------------------------------------------------------ *)
(* Batches: one farm run, the same answers as step by step              *)
(* ------------------------------------------------------------------ *)

module H = Refactor.History

let fresh_cache () =
  let dir = Filename.temp_file "certify_cache" "" in
  Sys.remove dir;
  Farm.Cache.open_ ~dir

(* every stats field but the two timings *)
let counts (s : C.stats) =
  [ s.C.ct_steps; s.C.ct_targets; s.C.ct_vcs_generated; s.C.ct_vcs_proved;
    s.C.ct_cache_hits; s.C.ct_cache_misses; s.C.ct_oracle_trials; s.C.ct_decided;
    s.C.ct_sampled ]

let as_step (s : H.step) =
  { C.sp_name = s.H.st_name;
    sp_before = (s.H.st_env_before, s.H.st_before);
    sp_after = (s.H.st_env_after, s.H.st_after);
    sp_claim = s.H.st_claim }

(* the full AES script's steps, and each certified alone, in order, with
   one cache across the steps *)
let aes_cfg jobs =
  { (C.default_config ~entries:[ "encrypt_block"; "decrypt_block" ] ()) with
    C.cf_jobs = jobs;
    cf_cache = Some (fresh_cache ()) }

let aes_steps =
  lazy (List.map as_step (H.steps (snd (Aes.Aes_refactoring.run ~kat_gate:false ()))))

let aes_alone =
  lazy
    (let cfg = aes_cfg 1 in
     List.map (fun sp -> List.hd (C.certify_steps cfg [ sp ])) (Lazy.force aes_steps))

let timing (s : C.stats) = s.C.ct_vc_seconds +. s.C.ct_oracle_seconds

(* the full AES script: certified as one batch at width 1 and 2, every
   step gets the certificate and counts it gets certified alone, in
   order, and the batch's timing fields stay within its wall time *)
let test_batch_equals_steps () =
  let steps = Lazy.force aes_steps and alone = Lazy.force aes_alone in
  List.iter
    (fun jobs ->
      let t0 = Logic.Clock.now () in
      let batch = C.certify_steps (aes_cfg jobs) steps in
      let wall = Logic.Clock.elapsed t0 in
      Alcotest.(check int) "one result per step" (List.length steps) (List.length batch);
      List.iter2
        (fun (sp : C.step) ((c1, s1), (c2, s2)) ->
          let what = Printf.sprintf "jobs=%d %s" jobs sp.C.sp_name in
          Alcotest.(check string) (what ^ ": certificate") (C.describe c1) (C.describe c2);
          Alcotest.(check (list int)) (what ^ ": counts") (counts s1) (counts s2))
        steps (List.combine alone batch);
      let timed = List.fold_left (fun acc (_, s) -> acc +. timing s) 0.0 batch in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: timing %.3fs within the %.3fs wall" jobs timed wall)
        true
        (timed > 0.0 && timed <= wall +. 1e-6))
    [ 1; 2 ]

(* the full AES script certified while it runs, at width 1 (after the
   script) and 2 (beside it): the certificates and counts of every step
   certified alone, and timing fields that add up to no more than the
   refactoring's wall time *)
let test_run_certified_equals_steps () =
  let steps = Lazy.force aes_steps and alone = Lazy.force aes_alone in
  let total = List.fold_left (fun acc (_, s) -> C.add_stats acc s) C.zero_stats alone in
  List.iter
    (fun jobs ->
      let t0 = Logic.Clock.now () in
      let _, h = Aes.Aes_refactoring.run ~kat_gate:false ~certify:(aes_cfg jobs) () in
      let wall = Logic.Clock.elapsed t0 in
      let certs = H.certificates h in
      Alcotest.(check int) "a certificate per step" (List.length steps) (List.length certs);
      List.iter2
        (fun (sp : C.step) ((_, name, c), (c1, _)) ->
          let what = Printf.sprintf "jobs=%d %s" jobs sp.C.sp_name in
          Alcotest.(check string) (what ^ ": step") sp.C.sp_name name;
          Alcotest.(check string) (what ^ ": certificate") (C.describe c1) (C.describe c))
        steps (List.combine certs alone);
      let stats = H.certification_stats h in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: counts" jobs)
        (counts total) (counts stats);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: timing %.3fs within the %.3fs wall" jobs (timing stats) wall)
        true
        (timing stats > 0.0 && timing stats <= wall +. 1e-6))
    [ 1; 2 ]

(* a key an earlier step of the batch proved is a later step's cache hit,
   exactly as when the steps are certified one after another *)
let test_batch_cache_replay () =
  let after =
    check_src
      (Str_replace.replace base_src ~find:"t := x + x;
    return t;" ~by:"return x + x;")
  in
  let step name =
    { C.sp_name = name; sp_before = check_src base_src; sp_after = after; sp_claim = None }
  in
  let run f =
    let cfg = { (C.default_config ()) with C.cf_cache = Some (fresh_cache ()) } in
    List.map (fun (_, s) -> counts s) (f cfg)
  in
  let alone =
    run (fun cfg ->
        let a = C.certify_steps cfg [ step "a" ] in
        a @ C.certify_steps cfg [ step "b" ])
  in
  let batch = run (fun cfg -> C.certify_steps cfg [ step "a"; step "b" ]) in
  Alcotest.(check (list (list int))) "batch counts = one step at a time" alone batch;
  match batch with
  | [ _; [ _; _; generated; _; hits; misses; _; _; _ ] ] ->
      Alcotest.(check bool) "the second step generates VCs" true (generated > 0);
      Alcotest.(check int) "the second step hits every VC" generated hits;
      Alcotest.(check int) "the second step misses none" 0 misses
  | _ -> Alcotest.fail "expected two steps"

(* A three-step script over [base_src]: a good step, a step that breaks
   [scale], then a transformation that rejects.  Certified as a batch,
   the refutation of the middle step wins over the rejection after it. *)
let script_sources =
  let s1 = Str_replace.replace base_src ~find:"t := x + x;
    return t;" ~by:"return x + x;" in
  let s2 = Str_replace.replace s1 ~find:"a (3) := a (3) * 2;" ~by:"a (3) := a (3) * 3;" in
  [ ("inline-temp(double)", s1); ("break(scale)", s2) ]

let run_script h =
  List.iter
    (fun (name, src) ->
      ignore
        (H.apply h
           (Refactor.Transform.make ~name ~category:Refactor.Transform.Modify_computation
              ~describe:name (fun _ _ -> Parser.of_string src))))
    script_sources;
  ignore
    (H.apply h
       (Refactor.Transform.make ~name:"reject" ~category:Refactor.Transform.Modify_computation
          ~describe:"reject" (fun _ _ -> Refactor.Transform.reject "no match")))

let test_batch_refutation_mid_script jobs () =
  let env, prog = check_src base_src in
  let h = H.create env prog in
  let cfg = { (C.default_config ()) with C.cf_jobs = jobs } in
  let expected =
    match
      C.certify cfg ~step_name:"break(scale)"
        ~before:(check_src (List.assoc "inline-temp(double)" script_sources))
        ~after:(check_src (List.assoc "break(scale)" script_sources))
    with
    | C.Refuted cx, _ -> cx
    | c, _ -> Alcotest.failf "the breaking step alone: %s" (C.describe c)
  in
  (match H.run_certified cfg h (fun () -> run_script h) with
  | () -> Alcotest.fail "the script was not refuted"
  | exception C.Refutation { rf_step; rf_cx } ->
      Alcotest.(check string) "the refuted step" "break(scale)" rf_step;
      Alcotest.(check string) "the one-step counterexample"
        (C.counterexample_to_string expected) (C.counterexample_to_string rf_cx));
  Alcotest.(check int) "the history keeps the steps before it" 1 (H.step_count h);
  Alcotest.(check bool) "certified" true
    (match H.certificates h with [ (0, _, c) ] -> is_certified c | _ -> false);
  Alcotest.(check string) "the state is the refuted step's pre-image"
    (List.assoc "inline-temp(double)" script_sources |> check_src |> snd
    |> Pretty.program_to_string)
    (Pretty.program_to_string (snd (H.current h)))

let test_orchestrated_batch_refutation () =
  let case =
    script_case (fun ?certify h ->
        match certify with
        | Some cfg -> H.run_certified cfg h (fun () -> run_script h)
        | None -> run_script h)
  in
  let r = O.run ~config:{ O.default_config with O.oc_certify = true } case in
  (match r.O.o_verdict with
  | O.Failed (Echo.Fault.Certification { cert_step; _ }) ->
      Alcotest.(check string) "names the refuted step" "break(scale)" cert_step
  | v -> Alcotest.failf "expected Failed (Certification), got %a" O.pp_verdict v);
  List.iter
    (fun (s, status) ->
      if CK.stage_index s > CK.stage_index CK.S_refactor then
        match status with
        | O.St_skipped -> ()
        | _ -> Alcotest.failf "stage %s ran after the refutation" (CK.stage_name s))
    r.O.o_stages

let suites =
  [
    ( "certify",
      [
        Alcotest.test_case "annotation-only change is identical" `Quick
          test_annotation_only;
        Alcotest.test_case "inline-temp certified by VC" `Quick
          test_vc_certifies_inline_temp;
        Alcotest.test_case "broken rewrite refuted with counterexample" `Quick
          test_oracle_refutes_broken_rewrite;
        Alcotest.test_case "divergence refuted, not hung" `Quick
          test_oracle_refutes_divergence;
        Alcotest.test_case "loop rewrite certified by oracle" `Quick
          test_oracle_certifies_loop_rewrite;
        Alcotest.test_case "zero oracle trials is Unknown, not Certified" `Quick
          test_zero_trials_is_unknown;
        Alcotest.test_case "VC cache makes re-certification free" `Quick
          test_vc_cache_reuse;
        Alcotest.test_case "v1 VC-cache entries miss" `Quick (test_old_entries_miss "v1");
        Alcotest.test_case "v2 VC-cache entries miss" `Quick (test_old_entries_miss "v2");
        Alcotest.test_case "certify stats seconds add" `Quick
          test_add_stats_sums_seconds;
        Alcotest.test_case "run memo key covers the behaviour closure" `Quick
          test_closure_key_soundness;
        Alcotest.test_case "run memo reused across an unrelated edit" `Quick
          test_closure_key_reuse;
        Alcotest.test_case "seeded defects are refuted" `Slow test_defect_corpus;
      ] );
    ( "certify:decided",
      [
        Alcotest.test_case "closure: an unrelated addition is decided" `Quick
          test_closure_unrelated_addition;
        Alcotest.test_case "closure: an edit inside the closure is sampled" `Quick
          test_closure_edit_inside;
        Alcotest.test_case "closure: an initialiser calling the edit is sampled" `Quick
          test_closure_initialiser_calls_changed;
        Alcotest.test_case "closure: initialisation raising in one version refutes" `Quick
          test_closure_initialisation_raises;
        Alcotest.test_case "scheme: a byte-indexed reversal is decided" `Quick
          test_scheme_certifies;
        Alcotest.test_case "scheme: an integer index is refuted by the oracle" `Quick
          test_scheme_integer_index;
        Alcotest.test_case "scheme: a local shadowing a helper is refuted" `Quick
          test_scheme_shadowed_helper;
        Alcotest.test_case "scheme: an index only under and then is refuted" `Quick
          test_scheme_short_circuit_index;
        Alcotest.test_case "scheme: a claim whose replay differs is refuted" `Quick
          test_scheme_replay_mismatch;
        Alcotest.test_case "scheme: a parameter named like the table is refuted" `Quick
          test_scheme_parameter_named_like_table;
        Alcotest.test_case "reuse: a 48-trial verdict is reused" `Quick test_reuse_certifies;
        Alcotest.test_case "reuse: too few trials or other programs are sampled" `Quick
          test_reuse_needs_enough_trials;
      ] );
    ( "certify:echo",
      [
        Alcotest.test_case "refutation maps to the certify fault class" `Quick
          test_refutation_fault_class;
        Alcotest.test_case "orchestrated gate records the audit" `Quick
          test_orchestrated_certify_gate;
        Alcotest.test_case "orchestrated refutation fails with exit 7" `Quick
          (test_orchestrated_refutation_is_certification_fault 1);
        Alcotest.test_case "width 2: orchestrated refutation exits 7" `Quick
          (test_orchestrated_refutation_is_certification_fault 2);
        Alcotest.test_case "full AES script certifies every step" `Slow
          test_aes_script_fully_certified;
        Alcotest.test_case "a refutation fails the run, later stages skipped" `Quick
          test_orchestrated_batch_refutation;
      ] );
    ( "certify:batch",
      [
        Alcotest.test_case "AES script: batch at jobs 1 and 2 = step by step" `Slow
          test_batch_equals_steps;
        Alcotest.test_case "an earlier step's proof is a later step's hit" `Quick
          test_batch_cache_replay;
        Alcotest.test_case "refutation mid-script wins over a later rejection" `Quick
          (test_batch_refutation_mid_script 1);
        Alcotest.test_case "width 2: mid-script refutation wins over a rejection" `Quick
          (test_batch_refutation_mid_script 2);
        Alcotest.test_case "AES script certified while it runs = step by step" `Slow
          test_run_certified_equals_steps;
      ] );
  ]
