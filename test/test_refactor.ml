(* Tests for the verification-refactoring library: each transformation's
   mechanical application, its applicability rejection, and the equivalence
   checking that backs the semantics-preservation argument. *)

open Minispark

let check_src src = Typecheck.check (Parser.of_string src)

(* apply each step certified, with [entries] as the entry points; every
   step must come out [Certified] *)
let apply_history src trs ~entries =
  let env, prog = check_src src in
  let h = Refactor.History.create env prog in
  let certify = Refactor.Certify.default_config ~entries () in
  List.iter
    (fun tr ->
      let step = Refactor.History.apply ~certify h tr in
      match step.Refactor.History.st_certificate with
      | Some (Refactor.Certify.Certified _) -> ()
      | c ->
          Alcotest.failf "%s: %s" step.Refactor.History.st_name
            (Option.fold ~none:"no certificate" ~some:Refactor.Certify.describe c))
    trs;
  Refactor.History.current h

let expect_reject f =
  match f () with
  | exception Refactor.Transform.Not_applicable _ -> ()
  | _ -> Alcotest.fail "expected Not_applicable"

(* ---------------- reroll ---------------- *)

let unrolled_src =
  {|
program unrolled is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

  procedure scale (a : in out vec)
  is
  begin
    a (0) := a (0) * 3;
    a (1) := a (1) * 3;
    a (2) := a (2) * 3;
    a (3) := a (3) * 3;
    a (4) := a (4) * 3;
    a (5) := a (5) * 3;
    a (6) := a (6) * 3;
    a (7) := a (7) * 3;
  end scale;

end unrolled;
|}

let test_reroll () =
  let _, prog =
    apply_history unrolled_src
      [ Refactor.Reroll.reroll ~proc:"scale" ~from:0 ~group_len:1 ~count:8 ~var:"i" ]
      ~entries:[ "scale" ]
  in
  let sub = Ast.find_sub_exn prog "scale" in
  match sub.Ast.sub_body with
  | [ Ast.For fl ] ->
      Alcotest.(check int) "one statement body" 1 (List.length fl.Ast.for_body);
      Alcotest.(check bool) "bounds 0..7" true
        (fl.Ast.for_lo = Ast.Int_lit 0 && fl.Ast.for_hi = Ast.Int_lit 7)
  | _ -> Alcotest.failf "not rerolled: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

let test_reroll_rejects_nonuniform () =
  let src = Str_replace.replace unrolled_src ~find:"a (5) := a (5) * 3;" ~by:"a (5) := a (5) * 4;" in
  expect_reject (fun () ->
      apply_history src
        [ Refactor.Reroll.reroll ~proc:"scale" ~from:0 ~group_len:1 ~count:8 ~var:"i" ]
        ~entries:[])

let test_reroll_suggest () =
  let _, prog = check_src unrolled_src in
  let suggestions = Refactor.Reroll.suggest prog in
  Alcotest.(check bool) "full-span suggestion present" true
    (List.mem ("scale", 0, 1, 8) suggestions)

(* ---------------- extract function / procedure ---------------- *)

let clone_src =
  {|
program clones is

  type byte is mod 256;

  procedure mix (a : in byte; b : in byte; r : out byte)
  is
    t1 : byte;
    t2 : byte;
  begin
    t1 := (a * 2) xor (a * 5) xor 1;
    t2 := (b * 2) xor (b * 5) xor 1;
    r := t1 xor t2;
  end mix;

end clones;
|}

let test_extract_function () =
  let tr =
    Refactor.Inline_reverse.extract_function ~name:"twirl"
      ~params:[ { Ast.par_name = "x"; par_mode = Ast.Mode_in; par_typ = Ast.Tnamed "byte" } ]
      ~ret:(Ast.Tnamed "byte")
      ~body:(Parser.expr_of_string "(x * 2) xor (x * 5) xor 1")
      ~min_occurrences:2 ()
  in
  let env, prog = apply_history clone_src [ tr ] ~entries:[ "mix" ] in
  ignore env;
  let sub = Ast.find_sub_exn prog "mix" in
  (match sub.Ast.sub_body with
  | [ Ast.Assign (_, Ast.Call ("twirl", [ Ast.Var "a" ]));
      Ast.Assign (_, Ast.Call ("twirl", [ Ast.Var "b" ])); _ ] ->
      ()
  | _ -> Alcotest.failf "clones not replaced: %s" (Pretty.stmts_to_string sub.Ast.sub_body));
  Alcotest.(check bool) "twirl defined" true (Ast.find_sub prog "twirl" <> None)

let test_extract_function_min_occurrence_reject () =
  let tr =
    Refactor.Inline_reverse.extract_function ~name:"other"
      ~params:[ { Ast.par_name = "x"; par_mode = Ast.Mode_in; par_typ = Ast.Tnamed "byte" } ]
      ~ret:(Ast.Tnamed "byte")
      ~body:(Parser.expr_of_string "(x * 7) xor 3")
      ~min_occurrences:1 ()
  in
  expect_reject (fun () -> apply_history clone_src [ tr ] ~entries:[])

let swap_clone_src =
  {|
program swapclone is

  type byte is mod 256;

  procedure shuffle (a : in out byte; b : in out byte; c : in out byte)
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
    t := b;
    b := c;
    c := t;
  end shuffle;

end swapclone;
|}

let test_extract_procedure () =
  let template = Parser.stmts_of_string "t := x; x := y; y := t;" in
  let tr =
    Refactor.Inline_reverse.extract_procedure ~name:"swap"
      ~params:
        [ { Ast.par_name = "x"; par_mode = Ast.Mode_in_out; par_typ = Ast.Tnamed "byte" };
          { Ast.par_name = "y"; par_mode = Ast.Mode_in_out; par_typ = Ast.Tnamed "byte" } ]
      ~template ~min_occurrences:2
      ~locals:[ { Ast.v_name = "t"; v_typ = Ast.Tnamed "byte"; v_init = None } ]
      ()
  in
  let _, prog = apply_history swap_clone_src [ tr ] ~entries:[ "shuffle" ] in
  let sub = Ast.find_sub_exn prog "shuffle" in
  match sub.Ast.sub_body with
  | [ Ast.Call_stmt ("swap", [ Ast.Var "a"; Ast.Var "b" ]);
      Ast.Call_stmt ("swap", [ Ast.Var "b"; Ast.Var "c" ]) ] ->
      ()
  | _ -> Alcotest.failf "not extracted: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

(* a call starts an out parameter at its type's default: a template that
   reads one first, or writes only part of an out array, would see or
   leave the default where the clone had the caller's value *)
let test_extract_procedure_out_param_rules () =
  let src =
    {|
program acc is

  type byte is mod 256;
  type pair is array (0 .. 1) of byte;

  procedure add (a : in out byte; b : in byte; v : in out pair)
  is
  begin
    a := a + b;
    v (0) := b;
  end add;

end acc;
|}
  in
  let byte = Ast.Tnamed "byte" in
  let extract name params template =
    Refactor.Inline_reverse.extract_procedure ~name ~params
      ~template:(Parser.stmts_of_string template) ()
  in
  expect_reject (fun () ->
      apply_history src
        [ extract "acc"
            [ { Ast.par_name = "x"; par_mode = Ast.Mode_out; par_typ = byte };
              { Ast.par_name = "y"; par_mode = Ast.Mode_in; par_typ = byte } ]
            "x := x + y;" ]
        ~entries:[ "add" ]);
  expect_reject (fun () ->
      apply_history src
        [ extract "first"
            [ { Ast.par_name = "w"; par_mode = Ast.Mode_out; par_typ = Ast.Tnamed "pair" };
              { Ast.par_name = "y"; par_mode = Ast.Mode_in; par_typ = byte } ]
            "w (0) := y;" ]
        ~entries:[ "add" ])

(* t is a local of shuffle used by the template; it must be declared a
   local of the new procedure, so matching with metas must not capture *)

(* ---------------- split procedure ---------------- *)

(* r is written only where x > 0: as an out parameter the call would
   reset it to 0 elsewhere, so the split passes it in out *)
let test_split_partial_write_in_out () =
  let src =
    {|
program splitif is

  procedure work (x : in integer; r : in out integer)
  is
  begin
    if x > 0 then
      r := x;
    end if;
  end work;

end splitif;
|}
  in
  let tr = Refactor.Split_procedure.split ~proc:"work" ~from:0 ~len:1 ~new_name:"part" in
  let _, prog = apply_history src [ tr ] ~entries:[ "work" ] in
  match (Ast.find_sub_exn prog "part").Ast.sub_params with
  | [ { Ast.par_name = "r"; par_mode = Ast.Mode_in_out; _ }; _ ]
  | [ _; { Ast.par_name = "r"; par_mode = Ast.Mode_in_out; _ } ] ->
      ()
  | _ -> Alcotest.fail "r is not passed in out"

let test_split_procedure () =
  let src =
    {|
program splitme is

  procedure work (x : in integer; r : out integer)
  is
    a : integer;
    b : integer;
  begin
    a := x + 1;
    b := a * 2;
    r := b - x;
  end work;

end splitme;
|}
  in
  let tr = Refactor.Split_procedure.split ~proc:"work" ~from:0 ~len:2 ~new_name:"prepare" in
  let _, prog = apply_history src [ tr ] ~entries:[ "work" ] in
  let sub = Ast.find_sub_exn prog "work" in
  Alcotest.(check int) "two statements left" 2 (List.length sub.Ast.sub_body);
  let prep = Ast.find_sub_exn prog "prepare" in
  Alcotest.(check int) "prepare has 2 stmts" 2 (List.length prep.Ast.sub_body)

let test_split_rejects_return () =
  let src =
    {|
program splitbad is

  function f (x : in integer) return integer
  is
  begin
    return x;
  end f;

end splitbad;
|}
  in
  expect_reject (fun () ->
      apply_history src
        [ Refactor.Split_procedure.split ~proc:"f" ~from:0 ~len:1 ~new_name:"g" ]
        ~entries:[])

(* ---------------- conditional motion ---------------- *)

let cond_src =
  {|
program cond is

  procedure classify (x : in integer; r : out integer)
  is
    base : integer;
  begin
    base := x * 2;
    if x > 0 then
      r := base + 1;
    else
      r := base - 1;
    end if;
  end classify;

end cond;
|}

let test_move_into_conditional () =
  let tr = Refactor.Conditional_motion.move_into ~proc:"classify" ~at:0 in
  let _, prog = apply_history cond_src [ tr ] ~entries:[ "classify" ] in
  let sub = Ast.find_sub_exn prog "classify" in
  match sub.Ast.sub_body with
  | [ Ast.If ([ (_, b1) ], b2) ] ->
      Alcotest.(check int) "then grew" 2 (List.length b1);
      Alcotest.(check int) "else grew" 2 (List.length b2)
  | _ -> Alcotest.failf "unexpected: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

let test_move_into_rejects_interference () =
  let src = Str_replace.replace cond_src ~find:"base := x * 2;" ~by:"base := x * 2; x := 0;" in
  (* x is an in-parameter; make it a local write instead *)
  ignore src;
  let src =
    {|
program cond2 is

  procedure f (x : in integer; r : out integer)
  is
    g : integer;
  begin
    g := x + 1;
    if g > 0 then
      r := 1;
    else
      r := 2;
    end if;
  end f;

end cond2;
|}
  in
  expect_reject (fun () ->
      apply_history src [ Refactor.Conditional_motion.move_into ~proc:"f" ~at:0 ] ~entries:[])

let test_move_out_common_prefix () =
  let tr0 = Refactor.Conditional_motion.move_into ~proc:"classify" ~at:0 in
  let tr1 = Refactor.Conditional_motion.move_out ~proc:"classify" ~at:0 in
  let _, prog = apply_history cond_src [ tr0; tr1 ] ~entries:[ "classify" ] in
  let sub = Ast.find_sub_exn prog "classify" in
  match sub.Ast.sub_body with
  | [ Ast.Assign _; Ast.If ([ (_, [ _ ]) ], [ _ ]) ] -> ()
  | _ -> Alcotest.failf "round-trip failed: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

(* ---------------- loop separation ---------------- *)

let test_separate_loops () =
  let src =
    {|
program fission is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

  procedure work (a : in out vec; b : in out vec)
  is
  begin
    for i in 0 .. 7 loop
      a (i) := a (i) * 2;
      b (i) := b (i) * 3;
    end loop;
  end work;

end fission;
|}
  in
  let tr = Refactor.Loop_separation.separate ~proc:"work" ~at:0 ~split_at:1 in
  let _, prog = apply_history src [ tr ] ~entries:[ "work" ] in
  let sub = Ast.find_sub_exn prog "work" in
  Alcotest.(check int) "two loops" 2 (List.length sub.Ast.sub_body)

let test_separate_rejects_dependence () =
  let src =
    {|
program nofission is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

  procedure work (a : in out vec)
  is
  begin
    for i in 0 .. 7 loop
      a (i) := a (i) * 2;
      a (i) := a (i) + 1;
    end loop;
  end work;

end nofission;
|}
  in
  expect_reject (fun () ->
      apply_history src
        [ Refactor.Loop_separation.separate ~proc:"work" ~at:0 ~split_at:1 ]
        ~entries:[])

(* ---------------- loop forms ---------------- *)

let test_reindex () =
  let src =
    {|
program shifty is

  type byte is mod 256;
  type vec is array (0 .. 9) of byte;

  procedure bump (a : in out vec)
  is
  begin
    for i in 0 .. 5 loop
      a (i + 4) := a (i + 4) * 2;
    end loop;
  end bump;

end shifty;
|}
  in
  let tr = Refactor.Loop_forms.reindex ~proc:"bump" ~at:0 ~offset:4 ~var:"j" in
  let _, prog = apply_history src [ tr ] ~entries:[ "bump" ] in
  let sub = Ast.find_sub_exn prog "bump" in
  match sub.Ast.sub_body with
  | [ Ast.For fl ] ->
      Alcotest.(check bool) "bounds 4..9" true
        (fl.Ast.for_lo = Ast.Int_lit 4 && fl.Ast.for_hi = Ast.Int_lit 9);
      (match fl.Ast.for_body with
      | [ Ast.Assign (Ast.Lindex (_, Ast.Var "j"), _) ] -> ()
      | b -> Alcotest.failf "indices not folded: %s" (Pretty.stmts_to_string b))
  | _ -> Alcotest.fail "loop lost"

let test_absorb_guarded_tail () =
  let src =
    {|
program absorb is

  type byte is mod 256;
  type vec is array (0 .. 9) of byte;
  type nr_range is range 10 .. 14;

  procedure steps (a : in out vec; nr : in nr_range)
  --# pre nr = 10 or nr = 12 or nr = 14;
  is
  begin
    for i in 0 .. 1 loop
      a (i) := a (i) * 2;
    end loop;
    if nr > 10 then
      a (2) := a (2) * 2;
    end if;
    if nr > 12 then
      a (3) := a (3) * 2;
    end if;
  end steps;

end absorb;
|}
  in
  let new_hi = Parser.expr_of_string "(nr - 8) / 2" in
  (* nr=10 -> 1, nr=12 -> 2, nr=14 -> 3 *)
  let tr =
    Refactor.Loop_forms.absorb_guarded_tail ~proc:"steps" ~at:0 ~tail_count:2 ~new_hi
      ~domain:[ ("nr", [ 10; 12; 14 ]) ]
  in
  let _, prog = apply_history src [ tr ] ~entries:[] in
  let sub = Ast.find_sub_exn prog "steps" in
  match sub.Ast.sub_body with
  | [ Ast.For fl ] ->
      Alcotest.(check string) "new bound" "(nr - 8) / 2"
        (Pretty.expr_to_string fl.Ast.for_hi)
  | _ -> Alcotest.failf "not absorbed: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

let test_absorb_rejects_wrong_bound () =
  let src =
    {|
program absorbbad is

  type byte is mod 256;
  type vec is array (0 .. 9) of byte;
  type nr_range is range 10 .. 14;

  procedure steps (a : in out vec; nr : in nr_range)
  --# pre nr = 10 or nr = 12 or nr = 14;
  is
  begin
    for i in 0 .. 1 loop
      a (i) := a (i) * 2;
    end loop;
    if nr > 10 then
      a (2) := a (2) * 2;
    end if;
  end steps;

end absorbbad;
|}
  in
  let new_hi = Parser.expr_of_string "nr - 8" in
  (* nr=10 -> 2 but old count is 2 only when nr>10: mismatch *)
  expect_reject (fun () ->
      apply_history src
        [ Refactor.Loop_forms.absorb_guarded_tail ~proc:"steps" ~at:0 ~tail_count:1
            ~new_hi ~domain:[ ("nr", [ 10; 12; 14 ]) ] ]
        ~entries:[])

(* the domain is the user's claim about [nr]; without a precondition that
   pins [nr] to it, [nr = 11] is a valid input on which the absorbed loop
   does not double [a (2)] *)
let test_absorb_rejects_unpinned_domain () =
  let src =
    {|
program absorbfree is

  type byte is mod 256;
  type vec is array (0 .. 9) of byte;
  type nr_range is range 10 .. 14;

  procedure steps (a : in out vec; nr : in nr_range)
  is
  begin
    for i in 0 .. 1 loop
      a (i) := a (i) * 2;
    end loop;
    if nr > 10 then
      a (2) := a (2) * 2;
    end if;
    if nr > 12 then
      a (3) := a (3) * 2;
    end if;
  end steps;

end absorbfree;
|}
  in
  let absorb domain =
    Refactor.Loop_forms.absorb_guarded_tail ~proc:"steps" ~at:0 ~tail_count:2
      ~new_hi:(Parser.expr_of_string "(nr - 8) / 2") ~domain
  in
  expect_reject (fun () ->
      apply_history src [ absorb [ ("nr", [ 10; 12; 14 ]) ] ] ~entries:[]);
  (* a domain variable that is not a parameter is rejected too *)
  expect_reject (fun () ->
      apply_history src [ absorb [ ("n", [ 10; 12; 14 ]) ] ] ~entries:[])

(* ---------------- storage adjustments ---------------- *)

let temp_src =
  {|
program temps is

  type byte is mod 256;

  procedure calc (x : in byte; r : out byte)
  is
    t : byte;
  begin
    t := x * 3;
    r := t + 1;
  end calc;

end temps;
|}

let test_inline_temp () =
  let tr = Refactor.Storage_adjust.inline_temp ~proc:"calc" ~temp:"t" in
  let _, prog = apply_history temp_src [ tr ] ~entries:[ "calc" ] in
  let sub = Ast.find_sub_exn prog "calc" in
  Alcotest.(check int) "one statement" 1 (List.length sub.Ast.sub_body);
  Alcotest.(check int) "no locals" 0 (List.length sub.Ast.sub_locals)

let test_introduce_temp () =
  let tr =
    Refactor.Storage_adjust.introduce_temp ~proc:"calc" ~at:0 ~name:"scaled"
      ~typ:(Ast.Tnamed "byte") ~expr:(Parser.expr_of_string "x * 3")
  in
  let _, prog = apply_history temp_src [ tr ] ~entries:[ "calc" ] in
  let sub = Ast.find_sub_exn prog "calc" in
  Alcotest.(check int) "three statements" 3 (List.length sub.Ast.sub_body)

let test_remove_dead_assignments () =
  let src =
    {|
program deadcode is

  procedure f (x : in integer; r : out integer)
  is
    unused : integer;
  begin
    unused := x * 100;
    r := x + 1;
  end f;

end deadcode;
|}
  in
  let tr = Refactor.Storage_adjust.remove_dead_assignments ~proc:"f" in
  let _, prog = apply_history src [ tr ] ~entries:[ "f" ] in
  let sub = Ast.find_sub_exn prog "f" in
  Alcotest.(check int) "dead store gone" 1 (List.length sub.Ast.sub_body)

let test_rename_sub () =
  let tr = Refactor.Storage_adjust.rename_sub ~from_name:"calc" ~to_name:"scale_plus_one" in
  let env, prog = check_src temp_src in
  let h = Refactor.History.create env prog in
  (* the program's shape changes and no entry point is configured, so the
     certificate is [Unknown]; a refutation would raise here *)
  ignore
    (Refactor.History.apply ~certify:(Refactor.Certify.default_config ()) h tr);
  let _, prog = Refactor.History.current h in
  Alcotest.(check bool) "renamed" true (Ast.find_sub prog "scale_plus_one" <> None);
  Alcotest.(check bool) "old gone" true (Ast.find_sub prog "calc" = None)

(* ---------------- data structures ---------------- *)

let word_src =
  {|
program words is

  type word is mod 4294967296;
  type block_t is array (0 .. 7) of word;

  procedure roundtrip (pt : in block_t; key : in block_t; ct : out block_t)
  is
    w0 : word;
    w1 : word;
    k0 : word;
    k1 : word;
  begin
    w0 := shift_left (pt (0), 24) or shift_left (pt (1), 16) or shift_left (pt (2), 8) or pt (3);
    w1 := shift_left (pt (4), 24) or shift_left (pt (5), 16) or shift_left (pt (6), 8) or pt (7);
    k0 := shift_left (key (0), 24) or shift_left (key (1), 16) or shift_left (key (2), 8) or key (3);
    k1 := shift_left (key (4), 24) or shift_left (key (5), 16) or shift_left (key (6), 8) or key (7);
    w0 := w0 xor k0;
    w1 := w1 xor k1;
    ct (0) := shift_right (w0, 24) and 255;
    ct (1) := shift_right (w0, 16) and 255;
    ct (2) := shift_right (w0, 8) and 255;
    ct (3) := w0 and 255;
    ct (4) := shift_right (w1, 24) and 255;
    ct (5) := shift_right (w1, 16) and 255;
    ct (6) := shift_right (w1, 8) and 255;
    ct (7) := w1 and 255;
  end roundtrip;

end words;
|}

let test_word_to_bytes () =
  let plan =
    {
      Refactor.Data_structures.word_type = "word";
      byte_name = "byte";
      vec_name = "word_bytes";
      array_types = [ ("block_t", Refactor.Data_structures.To_byte) ];
    }
  in
  let tr = Refactor.Data_structures.word_to_bytes ~plan () in
  let env, prog = apply_history word_src [ tr ] ~entries:[ "roundtrip" ] in
  ignore env;
  let sub = Ast.find_sub_exn prog "roundtrip" in
  (* extraction idioms must be gone: no shifts remain *)
  let shifts = ref 0 in
  Ast.iter_stmts
    (fun s ->
      Ast.iter_own_exprs
        (fun e ->
          Ast.iter_expr
            (function Ast.Binop ((Ast.Shl | Ast.Shr), _, _) -> incr shifts | _ -> ())
            e)
        s)
    sub.Ast.sub_body;
  Alcotest.(check int) "no shifts left" 0 !shifts

(* A byte position fed a word or'ed with a literal ([w0 or 255], as a
   swapped-operator defect leaves [w0 and 255]) mixes a converted word
   with a scalar: the template rejects it by operator, on one line, rather
   than leaving an ill-typed aggregate for the re-typecheck to report. *)
let test_word_to_bytes_rejects_mix () =
  let plan =
    {
      Refactor.Data_structures.word_type = "word";
      byte_name = "byte";
      vec_name = "word_bytes";
      array_types = [ ("block_t", Refactor.Data_structures.To_byte) ];
    }
  in
  let needle = "ct (3) := w0 and 255;" in
  let i = Astring.String.find_sub ~sub:needle word_src |> Option.get in
  let src =
    String.sub word_src 0 i ^ "ct (3) := w0 or 255;"
    ^ String.sub word_src (i + String.length needle)
        (String.length word_src - i - String.length needle)
  in
  let env, prog = check_src src in
  match Refactor.Transform.apply (Refactor.Data_structures.word_to_bytes ~plan ()) env prog with
  | _ -> Alcotest.fail "expected word_to_bytes to reject w0 or 255"
  | exception Refactor.Transform.Not_applicable note ->
      Alcotest.(check string) "operator note"
        "operator w0 or 255 applied to converted words in w0 or 255" note

let test_group_vars () =
  let src =
    {|
program grouping is

  type byte is mod 256;

  procedure f (x : in byte; r : out byte)
  is
    s0 : byte;
    s1 : byte;
  begin
    s0 := x;
    s1 := s0 * 2;
    r := s0 xor s1;
  end f;

end grouping;
|}
  in
  let tr =
    Refactor.Data_structures.group_vars ~proc:"f" ~vars:[ "s0"; "s1" ] ~array_name:"s"
      ~elem_type:(Ast.Tnamed "byte") ()
  in
  let _, prog = apply_history src [ tr ] ~entries:[ "f" ] in
  let sub = Ast.find_sub_exn prog "f" in
  Alcotest.(check int) "one local array" 1 (List.length sub.Ast.sub_locals)

(* ---------------- table reversal ---------------- *)

let table_src =
  {|
program tables is

  type byte is mod 256;
  type tab is array (0 .. 7) of byte;

  doubles : constant tab := (0, 2, 4, 6, 8, 10, 12, 14);

  procedure lookup (x : in integer; r : out byte)
  --# pre x >= 0 and x <= 7;
  is
  begin
    r := doubles (x);
  end lookup;

end tables;
|}

let test_reverse_table () =
  let tr =
    Refactor.Table_reverse.reverse ~table:"doubles" ~index_var:"i"
      ~replacement:(Parser.expr_of_string "double_of (i)")
      ~helpers:
        [ Ast.Dsub {
            Ast.sub_name = "double_of";
            sub_params =
              [ { Ast.par_name = "i"; par_mode = Ast.Mode_in; par_typ = Ast.Tint None } ];
            sub_return = Some (Ast.Tnamed "byte");
            sub_pre = None;
            sub_post = None;
            sub_locals = [];
            sub_body = [ Ast.Return (Some (Parser.expr_of_string "i * 2")) ];
          } ]
      ()
  in
  let _, prog = apply_history table_src [ tr ] ~entries:[] in
  Alcotest.(check bool) "table removed" true
    (List.for_all
       (function Ast.Dconst c -> c.Ast.k_name <> "doubles" | _ -> true)
       prog.Ast.prog_decls);
  let sub = Ast.find_sub_exn prog "lookup" in
  match sub.Ast.sub_body with
  | [ Ast.Assign (_, Ast.Call ("double_of", [ Ast.Var "x" ])) ] -> ()
  | b -> Alcotest.failf "lookup not rewritten: %s" (Pretty.stmts_to_string b)

let test_reverse_table_rejects_wrong_function () =
  let tr =
    Refactor.Table_reverse.reverse ~table:"doubles" ~index_var:"i"
      ~replacement:(Parser.expr_of_string "i * 3") ()
  in
  expect_reject (fun () -> apply_history table_src [ tr ] ~entries:[])

(* ---------------- replace_body ---------------- *)

let test_replace_body () =
  let body = Parser.stmts_of_string "r := (x * 2) + (x * 1);" in
  (* equivalent to r := x * 3 *)
  let tr = Refactor.Rewrite_body.replace_body ~proc:"calc" ~body:(body @ [ List.hd (Parser.stmts_of_string "r := r + 1;") ]) () in
  let _, prog = apply_history temp_src [ tr ] ~entries:[ "calc" ] in
  let sub = Ast.find_sub_exn prog "calc" in
  Alcotest.(check int) "two statements" 2 (List.length sub.Ast.sub_body)

let test_replace_body_rejects_inequivalent () =
  let body = Parser.stmts_of_string "r := x * 3;" in
  (* missing the +1 *)
  expect_reject (fun () ->
      apply_history temp_src
        [ Refactor.Rewrite_body.replace_body ~proc:"calc" ~body () ]
        ~entries:[])

(* ---------------- history ---------------- *)

let test_history_undo () =
  let env, prog = check_src temp_src in
  let h = Refactor.History.create env prog in
  let tr = Refactor.Storage_adjust.inline_temp ~proc:"calc" ~temp:"t" in
  ignore (Refactor.History.apply h tr);
  Alcotest.(check int) "one step" 1 (Refactor.History.step_count h);
  ignore (Refactor.History.undo h);
  Alcotest.(check int) "no steps" 0 (Refactor.History.step_count h);
  let _, cur = Refactor.History.current h in
  let sub = Ast.find_sub_exn cur "calc" in
  Alcotest.(check int) "body restored" 2 (List.length sub.Ast.sub_body)

let test_equivalence_detects_change () =
  let env, prog = check_src temp_src in
  let broken =
    Ast.update_sub prog "calc" (fun s ->
        { s with Ast.sub_body = Parser.stmts_of_string "t := x * 3; r := t + 2;" })
  in
  let env', broken = Typecheck.check broken in
  match
    Refactor.Equivalence.oracle ~seed:42 ~trials:64 ~fuel:Interp.default_fuel
      (env, prog) (env', broken) "calc"
  with
  | Refactor.Equivalence.Refuted _ -> ()
  | Refactor.Equivalence.Agree _ | Refactor.Equivalence.Undecided _ ->
      Alcotest.fail "missed the defect"

(* ---------------- clone detection ---------------- *)

let test_suggest_clones () =
  let _, prog =
    check_src
      {|
program cloned is

  type byte is mod 256;

  procedure p1 (a : in byte; r : out byte)
  is
    t : byte;
  begin
    t := a * 2;
    t := t xor 17;
    r := t + 1;
  end p1;

  procedure p2 (b : in byte; s : out byte)
  is
    u : byte;
  begin
    u := b * 2;
    u := u xor 17;
    s := u + 1;
  end p2;

end cloned;
|}
  in
  let clones = Refactor.Inline_reverse.suggest_clones prog in
  match clones with
  | c :: _ ->
      Alcotest.(check int) "three statements" 3 c.Refactor.Inline_reverse.cl_len;
      Alcotest.(check int) "two occurrences" 2
        (List.length c.Refactor.Inline_reverse.cl_occurrences)
  | [] -> Alcotest.fail "no clones found"

let test_suggest_clones_ignores_singletons () =
  let _, prog =
    check_src
      {|
program lonely is
  procedure p (r : out integer)
  is
  begin
    r := 1;
  end p;
end lonely;|}
  in
  Alcotest.(check int) "no clone families" 0
    (List.length (Refactor.Inline_reverse.suggest_clones prog))

let suites =
  [ ( "refactor:reroll",
      [ Alcotest.test_case "reroll unrolled loop" `Quick test_reroll;
        Alcotest.test_case "rejects non-uniform groups" `Quick test_reroll_rejects_nonuniform;
        Alcotest.test_case "suggests reroll sites" `Quick test_reroll_suggest ] );
    ( "refactor:inline_reverse",
      [ Alcotest.test_case "extract function from clones" `Quick test_extract_function;
        Alcotest.test_case "rejects when too few occurrences" `Quick
          test_extract_function_min_occurrence_reject;
        Alcotest.test_case "extract procedure from clones" `Quick test_extract_procedure;
        Alcotest.test_case "extract procedure: out parameters written first, wholly"
          `Quick test_extract_procedure_out_param_rules ] );
    ( "refactor:split",
      [ Alcotest.test_case "split procedure" `Quick test_split_procedure;
        Alcotest.test_case "rejects slice with return" `Quick test_split_rejects_return;
        Alcotest.test_case "a partly written scalar is passed in out" `Quick
          test_split_partial_write_in_out ] );
    ( "refactor:conditionals",
      [ Alcotest.test_case "move into conditional" `Quick test_move_into_conditional;
        Alcotest.test_case "rejects guard interference" `Quick test_move_into_rejects_interference;
        Alcotest.test_case "move out common prefix" `Quick test_move_out_common_prefix ] );
    ( "refactor:loops",
      [ Alcotest.test_case "separate independent loops" `Quick test_separate_loops;
        Alcotest.test_case "rejects dependent fission" `Quick test_separate_rejects_dependence;
        Alcotest.test_case "reindex loop" `Quick test_reindex;
        Alcotest.test_case "absorb guarded tail" `Quick test_absorb_guarded_tail;
        Alcotest.test_case "rejects wrong absorbed bound" `Quick test_absorb_rejects_wrong_bound;
        Alcotest.test_case "rejects a domain the contract does not pin" `Quick
          test_absorb_rejects_unpinned_domain ] );
    ( "refactor:storage",
      [ Alcotest.test_case "inline temp" `Quick test_inline_temp;
        Alcotest.test_case "introduce temp" `Quick test_introduce_temp;
        Alcotest.test_case "remove dead assignments" `Quick test_remove_dead_assignments;
        Alcotest.test_case "rename subprogram" `Quick test_rename_sub ] );
    ( "refactor:data_structures",
      [ Alcotest.test_case "word to byte arrays" `Quick test_word_to_bytes;
        Alcotest.test_case "rejects a word/scalar mix by operator" `Quick
          test_word_to_bytes_rejects_mix;
        Alcotest.test_case "group vars into state" `Quick test_group_vars ] );
    ( "refactor:tables",
      [ Alcotest.test_case "reverse table lookup" `Quick test_reverse_table;
        Alcotest.test_case "rejects wrong replacement" `Quick
          test_reverse_table_rejects_wrong_function ] );
    ( "refactor:rewrite_body",
      [ Alcotest.test_case "replace body with equivalent" `Quick test_replace_body;
        Alcotest.test_case "rejects inequivalent body" `Quick test_replace_body_rejects_inequivalent ] );
    ( "refactor:clones",
      [ Alcotest.test_case "detects cloned windows" `Quick test_suggest_clones;
        Alcotest.test_case "ignores singletons" `Quick test_suggest_clones_ignores_singletons ] );
    ( "refactor:history",
      [ Alcotest.test_case "undo restores program" `Quick test_history_undo;
        Alcotest.test_case "differential check finds defects" `Quick
          test_equivalence_detects_change ] ) ]

