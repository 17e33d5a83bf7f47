(* Certification layer: closure identity, checked transformation schemes
   and the differential fuzzing oracle.  Covers the certificate decision
   procedure on small programs, refutation of the seeded defect corpus,
   divergence detection through the interpreter fuel bound, and batches
   that answer as step by step. *)

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

let test_inline_temp_exhaustive () =
  (* remove the temporary: [double]'s byte domain is small enough to
     enumerate, so the oracle decides the step *)
  let after =
    Str_replace.replace base_src ~find:"t := x + x;
    return t;"
      ~by:"return x + x;"
  in
  match certify_pair base_src after with
  | C.Certified [ ("double", (C.M_oracle { trials = 256; exhaustive = true } as m)) ] ->
      Alcotest.(check bool) "decided" true (C.decided m)
  | c -> Alcotest.failf "expected an exhaustive oracle certificate, got %s" (C.describe c)

let test_loop_free_integer_sampled () =
  (* a loop-free rewrite over an [integer] parameter: no rule decides it
     and the domain is too large to enumerate, so it is sampled *)
  let src body =
    Printf.sprintf
      {|
program ints is

  function inc (x : in integer) return integer
  --# pre x >= 0 and x <= 1000;
  is
  begin
    %s
  end inc;

end ints;
|}
      body
  in
  match certify_pair (src "return x + 1;") (src "return 1 + x;") with
  | C.Certified [ ("inc", (C.M_oracle { trials = 24; exhaustive = false } as m)) ] ->
      Alcotest.(check bool) "sampled, not decided" false (C.decided m)
  | c -> Alcotest.failf "expected oracle:24, got %s" (C.describe c)

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

let test_add_stats_sums_seconds () =
  let a = { C.zero_stats with C.ct_steps = 1; ct_vc_seconds = 1.5; ct_oracle_seconds = 0.25 } in
  let b = { C.zero_stats with C.ct_steps = 2; ct_vc_seconds = 2.5; ct_oracle_seconds = 0.5 } in
  let s = C.add_stats a b in
  let feq = Alcotest.(check (float 1e-9)) in
  Alcotest.(check int) "steps add" 3 s.C.ct_steps;
  feq "vc seconds add" 4.0 s.C.ct_vc_seconds;
  feq "oracle seconds add" 0.75 s.C.ct_oracle_seconds

(* ------------------------------------------------------------------ *)
(* The behaviour closure: what a run of the target can observe          *)
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
   of [f] computes; a closure test that looked at [f]'s declaration alone
   would certify it *)
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

let test_closure_edits_refuted () =
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
      (* again, after the original's runs of f, on a domain whose memos
         are warm *)
      ignore (check_f before before ());
      for _ = 1 to 2 do
        Alcotest.(check string) (what ^ ": warm oracle = cold") cold_sub
          (check_f before after ());
        Alcotest.(check string) (what ^ ": warm certificate = cold") cold_cert
          (certify ())
      done)
    closure_edits

let test_unrelated_edit_equivalent () =
  let before = check_src closure_src in
  let after =
    check_src (Str_replace.replace closure_src ~find:"return x * 2;" ~by:"return x * 3;")
  in
  Alcotest.(check string) "unrelated edit keeps f equivalent" "equivalent 16"
    (cold (check_f before after))

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
   oracle ran *)
let expect_sampled what name cert =
  match method_of name cert with
  | Some (C.M_oracle _) -> ()
  | _ -> Alcotest.failf "%s: expected %s sampled, got %s" what name (C.describe cert)

(* [f] is a memoized const function that calls [g] and reads [t]; [p]
   is sampled *)
let memo_src =
  {|
program memo is

  type byte is mod 256;
  type tbl is array (0 .. 3) of byte;
  t : constant tbl := (1, 2, 3, 4);

  function g (x : in byte) return byte
  is
  begin
    return x + 10;
  end g;

  function f (x : in byte) return byte
  is
  begin
    return g (x) + t (x mod 4);
  end f;

  procedure p (x : in byte; r : out byte)
  is
  begin
    r := 0;
    for i in 0 .. 1 loop
      r := r + f (x);
    end loop;
  end p;

end memo;
|}

(* One width-1 session, so every oracle run shares the domain's
   const-function memo.  The first step samples [p] on the original,
   running [f] and [g] on every byte; each later step starts from that
   step's after and changes only what [f] reaches.  A memo keyed by [f]'s
   name would serve the first step's results to both, and one keyed by
   [f]'s declaration to the second. *)
let test_memo_across_steps_refutes () =
  let warm_src = Str_replace.replace memo_src ~find:"r := 0;" ~by:"r := 1 - 1;" in
  let warm = check_src warm_src in
  let step name before after =
    { C.sp_name = name; sp_before = before; sp_after = after; sp_claim = None }
  in
  let on_warm find by = step find warm (check_src (Str_replace.replace warm_src ~find ~by)) in
  let steps =
    [ step "warm" (check_src memo_src) warm;
      on_warm "return x + 10;" "return x + 11;";
      on_warm "(1, 2, 3, 4)" "(1, 2, 3, 5)" ]
  in
  let cfg = C.default_config ~entries:[ "p" ] () in
  match cold (fun () -> C.certify_steps cfg steps) with
  | [ (first, _); (callee, _); (table, _) ] ->
      expect_sampled "the first step" "p" first;
      List.iter
        (fun (what, cert) ->
          match cert with
          | C.Refuted cx ->
              Alcotest.(check bool) (what ^ ": the counterexample differs") true
                (cx.C.cx_before <> cx.C.cx_after)
          | c -> Alcotest.failf "%s: expected a refutation, got %s" what (C.describe c))
        [ ("callee g", callee); ("table t", table) ]
  | _ -> Alcotest.fail "three certificates expected"

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
  (* f reads neither k nor g, and k's initialiser, which calls g, sets
     only k: f's closure is unchanged and both versions initialise *)
  let before = check_src init_src in
  let after =
    check_src
      (with_unused ~before_end:"end init;"
         (Str_replace.replace init_src ~find:"return x + 1;" ~by:"return 1 + x;"))
  in
  let cfg = C.default_config ~entries:[ "f" ] () in
  let cert, _ = certify_step ~cfg before after in
  match method_of "f" cert with
  | Some C.M_closure -> ()
  | _ -> Alcotest.failf "expected f closure, got %s" (C.describe cert)

let test_closure_initialiser_raises_after () =
  (* the edit makes k's initialiser raise in the after version: f's
     closure is still unchanged, but the after version never initialises,
     so f is no closure target and the oracle refutes the step *)
  let before = check_src init_src in
  let after =
    check_src
      (with_unused ~before_end:"end init;"
         (Str_replace.replace init_src ~find:"return x + 1;" ~by:"return 1 / (x - 1);"))
  in
  Alcotest.(check bool) "f's closure is unchanged" true
    (E.closure_digest (snd before) "f" = E.closure_digest (snd after) "f");
  Alcotest.(check bool) "no closure identity" false
    (E.same_closure ~fuel:2_000_000 before after "f");
  let cfg = C.default_config ~entries:[ "f" ] () in
  expect_refuted "an initialiser raising after the edit" (fst (certify_step ~cfg before after))

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

(* ------------------------------------------------------------------ *)
(* The extraction and renaming schemes                                 *)
(* ------------------------------------------------------------------ *)

(* a program around procedure [p]: [decls] go before it (a callee, a
   global), and [p]'s inputs range over 256 points, so the oracle
   enumerates them all *)
let ex_src ?(decls = "") ?(locals = "") ?(params = "a : in nib; b : in nib; r : out nib")
    body =
  Printf.sprintf
    {|
program ex is

  type nib is mod 16;
  type quad is array (0 .. 3) of nib;
  type small is range 0 .. 15;
  t : constant quad := (1, 2, 3, 4);
  k : constant nib := 3;
%s
  procedure p (%s)
  is
  %s
  begin
    %s
  end p;

end ex;
|}
    decls params locals body

let extraction = T.Extraction { callee = "q" }

(* a step claiming the extraction of [q] that the scheme must not decide:
   the oracle samples [p] and refutes it *)
let extraction_refuted what ~before ~after =
  expect_refuted what
    (fst (certify_step ~claim:extraction (check_src before) (check_src after)))

let apply_step tr src =
  let before = check_src src in
  let env, prog, claim = T.apply tr (fst before) (snd before) in
  (before, (env, prog), claim)

let expect_decided what name scheme (cert, stats) =
  (match method_of name cert with
  | Some (C.M_scheme s) when s = scheme -> ()
  | _ -> Alcotest.failf "%s: expected %s scheme:%s, got %s" what name scheme (C.describe cert));
  Alcotest.(check int) (what ^ ": no trials") 0 stats.C.ct_oracle_trials

let test_extraction_split_decided () =
  let before, after, claim =
    apply_step
      (Refactor.Split_procedure.split ~proc:"p" ~from:0 ~len:2 ~new_name:"q")
      (ex_src ~locals:"s : nib;" "s := a + t (b / 4);\n    r := s * b;\n    r := r + 1;")
  in
  expect_decided "split" "p" "extraction" (certify_step ?claim before after)

let test_extraction_extract_decided () =
  let nib = Ast.Tnamed "nib" in
  let before, after, claim =
    apply_step
      (Refactor.Inline_reverse.extract_procedure ~name:"q"
         ~params:
           [ { Ast.par_name = "x"; par_mode = Ast.Mode_out; par_typ = nib };
             { Ast.par_name = "y"; par_mode = Ast.Mode_in; par_typ = nib };
             { Ast.par_name = "z"; par_mode = Ast.Mode_in; par_typ = nib } ]
         ~template:(Parser.stmts_of_string "x := y * 2 + z;")
         ~min_occurrences:2 ())
      (ex_src ~locals:"s : nib;"
         "s := a * 2 + t (b / 4);\n    r := b * 2 + t (s / 4);\n    r := r + s;")
  in
  (match after with
  | _, prog ->
      Alcotest.(check int) "two calls" 2
        (List.length
           (List.filter
              (function Ast.Call_stmt ("q", _) -> true | _ -> false)
              (Ast.find_sub_exn prog "p").Ast.sub_body)));
  expect_decided "extract" "p" "extraction" (certify_step ?claim before after)

let callee ?(locals = "") params body =
  Printf.sprintf "\n  procedure q (%s)\n  is\n  %s\n  begin\n    %s\n  end q;\n" params locals
    body

let test_extraction_body_differs () =
  extraction_refuted "the callee's body differs from the slice"
    ~before:(ex_src "r := a + b;")
    ~after:
      (ex_src ~decls:(callee "x : in nib; y : in nib; z : out nib" "z := x - y;")
         "q (a, b, r);")

let test_extraction_actual_written () =
  (* x is r's value on entry; inlined, it reads r after the body wrote it *)
  extraction_refuted "an in actual the body writes"
    ~before:(ex_src "r := a;\n    r := r + 1;\n    r := r + r;")
    ~after:
      (ex_src
         ~decls:(callee "x : in nib; y : in out nib" "y := y + 1;\n    y := y + x;")
         "r := a;\n    q (r, r);")

let test_extraction_actual_reads_global () =
  (* f reads g, which the body writes before it reads x *)
  let f = "\n  g : nib;\n\n  function f (y : in nib) return nib\n  is\n  begin\n    return y + g;\n  end f;\n" in
  extraction_refuted "an in actual calling a function that reads a global"
    ~before:(ex_src ~decls:f "g := 5;\n    r := f (a);")
    ~after:
      (ex_src ~decls:(f ^ callee "x : in nib; z : out nib" "g := 5;\n    z := x;") "q (f (a), r);")

let test_extraction_actual_reads_written_global () =
  (* the call evaluates its actual before the body's g := 1, the inlined
     body after it: in a comparison, a subscript and a function argument *)
  let g = "\n  g : nib;\n" in
  let f = "\n  function f (y : in nib) return nib\n  is\n  begin\n    return y + 1;\n  end f;\n" in
  extraction_refuted "an in actual comparing a global the body writes"
    ~before:
      (ex_src ~decls:g
         "g := 1;\n    if g = 0 then\n      r := 1;\n    else\n      r := 0;\n    end if;")
    ~after:
      (ex_src
         ~decls:
           (g
           ^ callee "c : in boolean; z : out nib"
               "g := 1;\n    if c then\n      z := 1;\n    else\n      z := 0;\n    end if;")
         "q (g = 0, r);");
  List.iter
    (fun (what, actual) ->
      extraction_refuted what
        ~before:(ex_src ~decls:(g ^ f) (Printf.sprintf "g := 1;\n    r := %s;" actual))
        ~after:
          (ex_src
             ~decls:(g ^ f ^ callee "x : in nib; z : out nib" "g := 1;\n    z := x;")
             (Printf.sprintf "q (%s, r);" actual)))
    [ ("an in actual subscripted by a global the body writes", "t (g)");
      ("an in actual passing a global the body writes to a function", "f (g)") ]

let test_extraction_actual_may_not_end () =
  (* the call runs spin (a) first, which never ends; the inlined body
     raises at t (4) before it reads x (the oracle stops at the first
     input, where the original raised and the step ran out of fuel) *)
  let spin =
    "\n  function spin (y : in nib) return nib\n  is\n    c : nib;\n  begin\n    c := y;\n\
    \    while c = c loop\n      c := c + 1;\n    end loop;\n    return c;\n  end spin;\n"
  in
  let params = "a : in nib; r : out nib" in
  extraction_refuted "an in actual that may not terminate"
    ~before:(ex_src ~params ~decls:spin "r := t (4);\n    r := spin (a);")
    ~after:
      (ex_src ~params
         ~decls:(spin ^ callee "x : in nib; z : out nib" "z := t (4);\n    z := x;")
         "q (spin (a), r);")

let test_extraction_raising_actual_unread () =
  (* t (a) raises for a >= 4: the call evaluates it on entry, the inlined
     body only where b > 7 *)
  extraction_refuted "an in parameter read only under an if"
    ~before:(ex_src "if b > 7 then\n      r := t (a);\n    else\n      r := 0;\n    end if;")
    ~after:
      (ex_src
         ~decls:
           (callee "x : in nib; c : in boolean; z : out nib"
              "if c then\n      z := x;\n    else\n      z := 0;\n    end if;")
         "q (t (a), b > 7, r);")

let test_extraction_out_read_first () =
  extraction_refuted "an out parameter read first"
    ~before:(ex_src "r := b;\n    r := r + a;")
    ~after:
      (ex_src ~decls:(callee "x : in nib; z : out nib" "z := z + x;") "r := b;\n    q (a, r);")

let test_extraction_out_array_partly_written () =
  extraction_refuted "a partly written out array"
    ~before:
      (ex_src ~locals:"w : quad;"
         "w (2) := b;\n    w (0) := a;\n    w (1) := a;\n    r := w (2);")
    ~after:
      (ex_src ~locals:"w : quad;"
         ~decls:(callee "x : in nib; v : out quad" "v (0) := x;\n    v (1) := x;")
         "w (2) := b;\n    q (a, w);\n    r := w (2);")

let test_extraction_caller_captures_global () =
  (* inlined, p's local k hides the constant k the body reads *)
  extraction_refuted "a caller local captures a global the callee reads"
    ~before:(ex_src ~locals:"k : nib;" "k := b;\n    r := a + k;")
    ~after:
      (ex_src ~locals:"k : nib;"
         ~decls:(callee "x : in nib; z : out nib" "z := x + k;")
         "k := b;\n    q (a, r);")

let test_extraction_callee_local () =
  (* the callee's local k is a global of p once inlined *)
  extraction_refuted "a callee with a local"
    ~before:
      (ex_src ~decls:"  h : nib;\n" "h := a;\n    r := h;\n    r := r + h;")
    ~after:
      (ex_src ~decls:("  h : nib;\n" ^ callee ~locals:"h : nib;" "x : in nib; z : out nib"
                        "h := x;\n    z := h;")
         "q (a, r);\n    r := r + h;")

let test_extraction_callee_returns () =
  extraction_refuted "a callee that returns early"
    ~before:(ex_src "r := b;\n    if a > 7 then\n      return;\n    end if;\n    r := a;\n    r := r + 1;")
    ~after:
      (ex_src
         ~decls:
           (callee "x : in nib; z : in out nib"
              "if x > 7 then\n      return;\n    end if;\n    z := x;")
         "r := b;\n    q (a, r);\n    r := r + 1;")

let test_extraction_global_out_actual () =
  (* the call writes g only on return, after the body read it as h's
     source; inlined, the body writes g first *)
  extraction_refuted "a global variable passed for an out parameter"
    ~before:(ex_src ~decls:"  g : nib;\n  h : nib;\n" "g := b;\n    g := a;\n    h := g;\n    r := h;")
    ~after:
      (ex_src
         ~decls:("  g : nib;\n  h : nib;\n" ^ callee "x : in nib; y : out nib" "y := x;\n    h := g;")
         "g := b;\n    q (a, g);\n    r := h;")

let test_extraction_body_captures_actual () =
  (* inlined, the body's loop variable i hides p's i in the actual *)
  extraction_refuted "a loop variable of the body captures an actual's variable"
    ~before:
      (ex_src ~locals:"i : nib;"
         "i := a;\n    r := 0;\n    for i in 0 .. 3 loop\n      r := r + i;\n    end loop;")
    ~after:
      (ex_src ~locals:"i : nib;"
         ~decls:
           (callee "x : in nib; z : out nib"
              "z := 0;\n    for i in 0 .. 3 loop\n      z := z + x;\n    end loop;")
         "i := a;\n    q (i, r);")

let test_extraction_body_binds_formal () =
  (* the loop variable x is no reading of the parameter x *)
  extraction_refuted "a loop variable named like a parameter"
    ~before:(ex_src "r := 0;\n    for x in 0 .. 3 loop\n      r := r + a;\n    end loop;")
    ~after:
      (ex_src
         ~decls:
           (callee "x : in nib; z : out nib"
              "z := 0;\n    for x in 0 .. 3 loop\n      z := z + x;\n    end loop;")
         "q (a, r);")

let test_extraction_actual_coerced () =
  (* copy-in wraps a into the modulus; inlined, a * 5 does not wrap *)
  extraction_refuted "an actual of another type"
    ~before:(ex_src ~params:"a : in small; r : out nib" "r := (a * 5) / 2;")
    ~after:
      (ex_src ~params:"a : in small; r : out nib"
         ~decls:(callee "x : in nib; z : out nib" "z := (x * 5) / 2;")
         "q (a, r);")

let test_extraction_caller_store_inexact () =
  (* the integer i holds a modular value, which copy-in converts *)
  extraction_refuted "a caller variable holding a value not of its type"
    ~before:(ex_src ~locals:"i : integer;" "i := a;\n    r := (i + 12) / 2;")
    ~after:
      (ex_src ~locals:"i : integer;"
         ~decls:(callee "x : in integer; z : out nib" "z := (x + 12) / 2;")
         "i := a;\n    q (i, r);")

let test_extraction_callee_store_inexact () =
  (* z holds a modular value, which copy-out converts *)
  extraction_refuted "a callee storing a value not of its parameter's type"
    ~before:(ex_src ~locals:"i : integer;" "i := a + 12;\n    r := (i * 3) / 2;")
    ~after:
      (ex_src ~locals:"i : integer;"
         ~decls:(callee "x : in nib; z : out integer" "z := x + 12;")
         "q (a, i);\n    r := (i * 3) / 2;")

let test_extraction_copy_out_inexact () =
  (* w's integer out parameter leaves 20 in the nib v, which copy-in
     wraps *)
  let w = "\n  procedure w (o : out integer)\n  is\n  begin\n    o := 20;\n  end w;\n" in
  extraction_refuted "a caller variable written through another type"
    ~before:(ex_src ~decls:w ~locals:"v : nib;" "w (v);\n    r := v / 2;")
    ~after:
      (ex_src ~locals:"v : nib;"
         ~decls:(w ^ callee "x : in nib; z : out nib" "z := x / 2;")
         "w (v);\n    q (v, r);")

let test_renaming_decided () =
  let before, after, claim =
    apply_step
      (Refactor.Storage_adjust.rename_sub ~from_name:"q" ~to_name:"q2")
      (ex_src ~decls:(callee "x : in nib; z : out nib" "z := x + k;") "q (a, r);\n    r := r + b;")
  in
  let cfg = C.default_config ~entries:[ "p" ] () in
  expect_decided "rename" "p" "renaming" (certify_step ~cfg ?claim before after)

let test_renaming_shadowed () =
  (* p's local array g, or the constant t, turns the renamed call into an
     indexing *)
  let fn name = Printf.sprintf "\n  function %s (x : in nib) return nib\n  is\n  begin\n    return x + 1;\n  end %s;\n" name name in
  let before = ex_src ~decls:(fn "f") ~locals:"g : quad;" "r := f (a);" in
  List.iter
    (fun to_name ->
      match apply_step (Refactor.Storage_adjust.rename_sub ~from_name:"f" ~to_name) before with
      | _ -> Alcotest.failf "rename_sub renamed a call into the name %s an object has" to_name
      | exception T.Not_applicable _ -> ())
    [ "g"; "t" ];
  let claim = T.Renaming { from_name = "f"; to_name = "g" } in
  let cfg = C.default_config ~entries:[ "p" ] () in
  expect_refuted "a rename whose target a local shadows"
    (fst
       (certify_step ~cfg ~claim (check_src before)
          (check_src (ex_src ~decls:(fn "g") ~locals:"g : quad;" "r := g (a);"))))

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

(* every stats field but the two timings *)
let counts (s : C.stats) =
  [ s.C.ct_steps; s.C.ct_targets; s.C.ct_vcs_generated; s.C.ct_oracle_trials;
    s.C.ct_decided; s.C.ct_sampled ]

let as_step (s : H.step) =
  { C.sp_name = s.H.st_name;
    sp_before = (s.H.st_env_before, s.H.st_before);
    sp_after = (s.H.st_env_after, s.H.st_after);
    sp_claim = s.H.st_claim }

(* the full AES script's steps, and each certified alone, in order *)
let aes_cfg jobs =
  { (C.default_config ~entries:[ "encrypt_block"; "decrypt_block" ] ()) with
    C.cf_jobs = jobs }

let aes_steps =
  lazy (List.map as_step (H.steps (snd (Aes.Aes_refactoring.run ~kat_gate:false ()))))

let aes_alone =
  lazy
    (let cfg = aes_cfg 1 in
     List.map (fun sp -> List.hd (C.certify_steps cfg [ sp ])) (Lazy.force aes_steps))

let timing (s : C.stats) = s.C.ct_vc_seconds +. s.C.ct_oracle_seconds

(* Soundness sweep over the AES extraction and renaming steps: each
   expression site (a literal, an index, an operator) and each assignment
   of the new callee, or the renamed subprogram, and of its callers is
   mutated in the step's after.  No mutant the oracle refutes may come
   out decided by a scheme: a mutant whose claim holds is sampled without
   it, and one whose claim fails is sampled by certification anyway.
   Such a mutant no longer inlines (renames) back to the step's before,
   so the paired mutants below exercise the other side-conditions. *)
let sweep_rewrites =
  [ ((function Ast.Int_lit _ -> true | _ -> false),
     function Ast.Int_lit n -> Ast.Int_lit (n + 1) | e -> e);
    ((function Ast.Index _ -> true | _ -> false),
     function Ast.Index (a, i) -> Ast.Index (a, Ast.Binop (Ast.Add, i, Ast.Int_lit 1)) | e -> e);
    ((function Ast.Binop ((Ast.Add | Ast.Sub | Ast.Bxor | Ast.Bor | Ast.Band), _, _) -> true
      | _ -> false),
     function
     | Ast.Binop (Ast.Add, a, b) -> Ast.Binop (Ast.Sub, a, b)
     | Ast.Binop (Ast.Sub, a, b) -> Ast.Binop (Ast.Add, a, b)
     | Ast.Binop (Ast.Bxor, a, b) -> Ast.Binop (Ast.Bor, a, b)
     | Ast.Binop ((Ast.Bor | Ast.Band), a, b) -> Ast.Binop (Ast.Bxor, a, b)
     | e -> e) ]

(* every mutant of [prog] at a site of subprogram [sub] *)
let sweep_mutants prog sub =
  let rec all nth mutate =
    match mutate nth prog with
    | p -> p :: all (nth + 1) mutate
    | exception Invalid_argument _ -> []
  in
  List.concat_map
    (fun (site, rewrite) ->
      all 0 (fun nth -> Defects.Seed.mutate_expr_sites ~sub_name:sub ~site ~rewrite ~nth))
    sweep_rewrites
  @ all 0 (fun nth -> Defects.Seed.delete_statement ~sub_name:sub ~nth)

(* Paired mutants: every [stride]th mutant of an extraction step's
   callee body, with the same mutant inlined back into the step's before,
   so the step stays an extraction.  The scheme decides most of them, and
   the oracle must agree with each one it decides. *)
let sweep_paired cfg (sp : C.step) callee ~stride =
  let decided = ref 0 and pairs = ref 0 in
  List.iteri
    (fun k mutant ->
      if k mod stride = 0 then
        match Typecheck.check_incremental ~baseline:sp.C.sp_after mutant with
        | exception Typecheck.Type_error _ -> ()
        | (_, prog) as after -> (
            let inlined =
              Refactor.Extraction.inline ~callee:(Ast.find_sub_exn prog callee) prog
            in
            match Typecheck.check_incremental ~baseline:sp.C.sp_before inlined with
            | exception Typecheck.Type_error _ -> ()
            | before -> (
                incr pairs;
                match Refactor.Extraction.check_scheme ~callee before after with
                | Error _ -> ()
                | Ok () -> (
                    incr decided;
                    match
                      C.certify_steps cfg
                        [ { sp with C.sp_before = before; sp_after = after; sp_claim = None } ]
                    with
                    | [ (C.Refuted cx, _) ] ->
                        Alcotest.failf "%s: a paired mutant the scheme decides is refuted: %s"
                          sp.C.sp_name (C.counterexample_to_string cx)
                    | _ -> ()))))
    (sweep_mutants (snd sp.C.sp_after) callee);
  (!pairs, !decided)

let test_scheme_sweep () =
  let cfg = aes_cfg 1 in
  let mutants = ref 0 and decided = ref 0 and steps = ref 0 in
  let pairs = ref 0 and pairs_decided = ref 0 in
  List.iter
    (fun (sp : C.step) ->
      let scheme =
        match sp.C.sp_claim with
        | Some (T.Extraction { callee }) ->
            Some (callee, Refactor.Extraction.check_scheme ~callee)
        | Some (T.Renaming { from_name; to_name }) ->
            Some (to_name, Refactor.Storage_adjust.check_renaming ~from_name ~to_name)
        | _ -> None
      in
      Option.iter
        (fun (subject, check) ->
          incr steps;
          let prog = snd sp.C.sp_after in
          let subs =
            subject
            :: List.filter_map
                 (fun (s : Ast.subprogram) ->
                   if List.mem subject (Share.decl_refs (Ast.Dsub s))
                      && s.Ast.sub_name <> subject
                   then Some s.Ast.sub_name
                   else None)
                 (Ast.subprograms prog)
          in
          List.iter
            (fun mutant ->
              match Typecheck.check_incremental ~baseline:sp.C.sp_after mutant with
              | exception Typecheck.Type_error _ -> ()
              | after -> (
                  incr mutants;
                  match check sp.C.sp_before after with
                  | Error _ -> ()
                  | Ok () -> (
                      incr decided;
                      match
                        C.certify_steps cfg
                          [ { sp with C.sp_after = after; sp_claim = None } ]
                      with
                      | [ (C.Refuted cx, _) ] ->
                          Alcotest.failf "%s: a mutant its scheme decides is refuted: %s"
                            sp.C.sp_name (C.counterexample_to_string cx)
                      | _ -> ())))
            (List.concat_map (sweep_mutants prog) subs);
          match sp.C.sp_claim with
          | Some (T.Extraction { callee }) ->
              let p, d = sweep_paired cfg sp callee ~stride:32 in
              pairs := !pairs + p;
              pairs_decided := !pairs_decided + d
          | _ -> ())
        scheme)
    (Lazy.force aes_steps);
  Printf.printf "%d steps, %d mutants, %d decided by a scheme; %d paired mutants, %d decided\n"
    !steps !mutants !decided !pairs !pairs_decided;
  Alcotest.(check int) "the split, extract and rename steps" 11 !steps;
  Alcotest.(check bool) "mutants" true (!mutants > 0);
  Alcotest.(check bool) "paired mutants decided" true (!pairs_decided > 0)

(* each step's certificate and counts in [batch] are those it got
   certified alone *)
let expect_alone ~jobs steps alone batch =
  Alcotest.(check int) "one result per step" (List.length steps) (List.length batch);
  List.iter2
    (fun (sp : C.step) ((c1, s1), (c2, s2)) ->
      let what = Printf.sprintf "jobs=%d %s" jobs sp.C.sp_name in
      Alcotest.(check string) (what ^ ": certificate") (C.describe c1) (C.describe c2);
      Alcotest.(check (list int)) (what ^ ": counts") (counts s1) (counts s2))
    steps (List.combine alone batch)

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
      expect_alone ~jobs steps alone batch;
      let timed = List.fold_left (fun acc (_, s) -> acc +. timing s) 0.0 batch in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: timing %.3fs within the %.3fs wall" jobs timed wall)
        true
        (timed > 0.0 && timed <= wall +. 1e-6))
    [ 1; 2 ]

(* the VC fields [Certify.stats] keeps for perfbench: no step of the full
   AES script generates a VC or spends prover time *)
let test_aes_no_vc_work () =
  List.iter
    (fun ((sp : C.step), (_, s)) ->
      Alcotest.(check int) (sp.C.sp_name ^ ": no VC generated") 0 s.C.ct_vcs_generated;
      Alcotest.(check (float 0.0)) (sp.C.sp_name ^ ": no VC time") 0.0 s.C.ct_vc_seconds)
    (List.combine (Lazy.force aes_steps) (Lazy.force aes_alone))

(* two steps over [base_src], certified as one batch at width 1 and 2:
   each gets the certificate and counts it gets certified alone *)
let test_two_step_batch_equals_steps () =
  let after =
    check_src
      (Str_replace.replace base_src ~find:"t := x + x;
    return t;" ~by:"return x + x;")
  in
  let step name =
    { C.sp_name = name; sp_before = check_src base_src; sp_after = after; sp_claim = None }
  in
  let steps = [ step "a"; step "b" ] in
  let alone = List.map (fun sp -> List.hd (C.certify_steps (C.default_config ()) [ sp ])) steps in
  List.iter
    (fun jobs ->
      expect_alone ~jobs steps alone
        (C.certify_steps { (C.default_config ()) with C.cf_jobs = jobs } steps))
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

(* A session over [base_src] plus a function [h] whose precondition no
   byte satisfies, at widths 1 and 2: a step whose claim fails (its
   target is sampled), a step whose target the oracle cannot sample (it
   falls back to the entry point [double]), a refutation, and a good step
   after it.  Each step's certificate and counts equal those it gets
   certified alone. *)
let test_session_outcomes_any_width () =
  let h_fun =
    {|
  function h (x : in byte) return byte
  --# pre x > 300;
  is
  begin
    return x;
  end h;
|}
  in
  let s0 = Str_replace.replace base_src ~find:"end base;" ~by:(h_fun ^ "end base;") in
  let s1 =
    Str_replace.replace s0
      ~find:"a (0) := a (0) * 2;
    a (1) := a (1) * 2;
    a (2) := a (2) * 2;
    a (3) := a (3) * 2;"
      ~by:"for i in 0 .. 3 loop
    a (i) := a (i) * 2;
    end loop;"
  in
  (* a renamed parameter changes [h], whose precondition no byte meets:
     the oracle cannot sample it *)
  let s2 =
    Str_replace.replace s1 ~find:"function h (x : in byte) return byte
  --# pre x > 300;
  is
  begin
    return x;"
      ~by:"function h (y : in byte) return byte
  --# pre y > 300;
  is
  begin
    return y;"
  in
  let s3 = Str_replace.replace s2 ~find:"a (i) * 2" ~by:"a (i) * 3" in
  let s4 = Str_replace.replace s3 ~find:"t := x + x;
    return t;" ~by:"return x + x;" in
  let progs = List.map check_src [ s0; s1; s2; s3; s4 ] in
  let steps =
    List.mapi
      (fun k (name, claim) ->
        let before = List.nth progs k and after = List.nth progs (k + 1) in
        { C.sp_name = name; sp_before = before; sp_after = after;
          sp_claim = Option.map (fun f -> f before after) claim })
      [ ("reroll(scale)", Some (agreement ~after_digest:"elsewhere"));
        ("rename(h)", None); ("break(scale)", None); ("inline-temp(double)", None) ]
  in
  let cfg jobs = { (C.default_config ~entries:[ "double" ] ()) with C.cf_jobs = jobs } in
  let alone = List.map (fun sp -> List.hd (C.certify_steps (cfg 1) [ sp ])) steps in
  (match List.map fst alone with
  | [ c1; c2; c3; c4 ] ->
      expect_sampled "a failed claim" "scale" c1;
      (* [double] is not a target of a step that keeps the program's
         shape, so the fallback samples it rather than test its closure *)
      Alcotest.(check string) "h by the entry points" "certified (h entries:256)"
        (C.describe c2);
      expect_refuted "the breaking step" c3;
      Alcotest.(check bool) "the step after the refutation" true (is_certified c4)
  | _ -> Alcotest.fail "expected four steps");
  List.iter
    (fun jobs -> expect_alone ~jobs steps alone (C.certify_steps (cfg jobs) steps))
    [ 1; 2 ]

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
        Alcotest.test_case "inline-temp decided by the exhaustive oracle" `Quick
          test_inline_temp_exhaustive;
        Alcotest.test_case "a loop-free integer rewrite is sampled" `Quick
          test_loop_free_integer_sampled;
        Alcotest.test_case "broken rewrite refuted with counterexample" `Quick
          test_oracle_refutes_broken_rewrite;
        Alcotest.test_case "divergence refuted, not hung" `Quick
          test_oracle_refutes_divergence;
        Alcotest.test_case "loop rewrite certified by oracle" `Quick
          test_oracle_certifies_loop_rewrite;
        Alcotest.test_case "zero oracle trials is Unknown, not Certified" `Quick
          test_zero_trials_is_unknown;
        Alcotest.test_case "certify stats seconds add" `Quick
          test_add_stats_sums_seconds;
        Alcotest.test_case "an edit the closure reaches is refuted, cold or warm" `Quick
          test_closure_edits_refuted;
        Alcotest.test_case "an edit outside the closure keeps the oracle's verdict" `Quick
          test_unrelated_edit_equivalent;
        Alcotest.test_case "a callee edited after a memoized run is refuted" `Quick
          test_memo_across_steps_refutes;
        Alcotest.test_case "seeded defects are refuted" `Slow test_defect_corpus;
      ] );
    ( "certify:decided",
      [
        Alcotest.test_case "closure: an unrelated addition is decided" `Quick
          test_closure_unrelated_addition;
        Alcotest.test_case "closure: an edit inside the closure is sampled" `Quick
          test_closure_edit_inside;
        Alcotest.test_case "closure: an initialiser calling the edit is decided" `Quick
          test_closure_initialiser_calls_changed;
        Alcotest.test_case "closure: an initialiser the edit makes raise refutes" `Quick
          test_closure_initialiser_raises_after;
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
        Alcotest.test_case "extraction: a split is decided" `Quick
          test_extraction_split_decided;
        Alcotest.test_case "extraction: a two-occurrence extract is decided" `Quick
          test_extraction_extract_decided;
        Alcotest.test_case "extraction: a body that differs from the slice is refuted" `Quick
          test_extraction_body_differs;
        Alcotest.test_case "extraction: an in actual the body writes is refuted" `Quick
          test_extraction_actual_written;
        Alcotest.test_case "extraction: an in actual reading a global through a function is refuted"
          `Quick test_extraction_actual_reads_global;
        Alcotest.test_case "extraction: an in actual reading a global the body writes is refuted"
          `Quick test_extraction_actual_reads_written_global;
        Alcotest.test_case "extraction: an in actual that may not terminate is refuted" `Quick
          test_extraction_actual_may_not_end;
        Alcotest.test_case "extraction: a raising actual read under an if is refuted" `Quick
          test_extraction_raising_actual_unread;
        Alcotest.test_case "extraction: an out parameter read first is refuted" `Quick
          test_extraction_out_read_first;
        Alcotest.test_case "extraction: a partly written out array is refuted" `Quick
          test_extraction_out_array_partly_written;
        Alcotest.test_case "extraction: a caller local capturing a global is refuted" `Quick
          test_extraction_caller_captures_global;
        Alcotest.test_case "extraction: a callee local is refuted" `Quick
          test_extraction_callee_local;
        Alcotest.test_case "extraction: a callee returning early is refuted" `Quick
          test_extraction_callee_returns;
        Alcotest.test_case "extraction: a global out actual is refuted" `Quick
          test_extraction_global_out_actual;
        Alcotest.test_case "extraction: a body loop capturing an actual is refuted" `Quick
          test_extraction_body_captures_actual;
        Alcotest.test_case "extraction: a body loop named like a parameter is refuted" `Quick
          test_extraction_body_binds_formal;
        Alcotest.test_case "extraction: an actual copy-in coerces is refuted" `Quick
          test_extraction_actual_coerced;
        Alcotest.test_case "extraction: an inexact caller store is refuted" `Quick
          test_extraction_caller_store_inexact;
        Alcotest.test_case "extraction: an inexact callee store is refuted" `Quick
          test_extraction_callee_store_inexact;
        Alcotest.test_case "extraction: an inexact copy-out into the caller is refuted" `Quick
          test_extraction_copy_out_inexact;
        Alcotest.test_case "renaming: a rename is decided" `Quick
          test_renaming_decided;
        Alcotest.test_case "renaming: a target a local shadows is refuted" `Quick
          test_renaming_shadowed;
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
        Alcotest.test_case "AES extraction and renaming steps: no refuted mutant decided"
          `Slow test_scheme_sweep;
        Alcotest.test_case "refutation mid-script wins over a later rejection" `Quick
          (test_batch_refutation_mid_script 1);
        Alcotest.test_case "width 2: mid-script refutation wins over a rejection" `Quick
          (test_batch_refutation_mid_script 2);
        Alcotest.test_case "session outcomes at widths 1 and 2 = each step alone" `Quick
          test_session_outcomes_any_width;
        Alcotest.test_case "AES script certified while it runs = step by step" `Slow
          test_run_certified_equals_steps;
        Alcotest.test_case "AES script: no step generates a VC" `Slow test_aes_no_vc_work;
        Alcotest.test_case "two steps: batch at widths 1 and 2 = step by step" `Quick
          test_two_step_batch_equals_steps;
      ] );
  ]
