(* Tests for the MiniSpark language substrate: lexer, parser, pretty-printer
   round-trips, type checker, and interpreter. *)

open Minispark

let sample_source =
  {|
program demo is

  type byte is mod 256;
  type index_t is range 0 .. 3;
  type vec is array (0 .. 3) of byte;

  zero_vec : constant vec := (0, 0, 0, 0);
  counter : integer := 0;

  function add3 (x : in byte; y : in byte; z : in byte) return byte
  --# pre x >= 0;
  --# post result = x + y + z;
  is
  begin
    return x + y + z;
  end add3;

  function sum (a : in vec) return byte
  is
    acc : byte := 0;
  begin
    for k in 0 .. 3
    --# invariant acc >= 0;
    loop
      acc := acc xor a (k);
    end loop;
    return acc;
  end sum;

  procedure swap (a : in out byte; b : in out byte)
  --# post a = b~ and b = a~;
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
  end swap;

  procedure classify (x : in integer; tag : out integer)
  is
  begin
    if x < 0 then
      tag := -1;
    elsif x = 0 then
      tag := 0;
    else
      tag := 1;
    end if;
  end classify;

  procedure gcd (a : in integer; b : in integer; g : out integer)
  --# pre a > 0 and b > 0;
  is
    x : integer;
    y : integer;
    t : integer;
  begin
    x := a;
    y := b;
    while y /= 0
    --# invariant x > 0;
    loop
      t := y;
      y := x mod y;
      x := t;
    end loop;
    g := x;
  end gcd;

end demo;
|}

let parse_check src =
  let prog = Parser.of_string src in
  Typecheck.check prog

let checked () = parse_check sample_source

(* ------------------------------------------------------------------ *)

let test_lexer_hex () =
  match Lexer.to_list (Lexer.tokenize "16#ff# 16#C66363a5# 2#1010#") with
  | [ { tok = INT 255; _ }; { tok = INT 0xc66363a5; _ }; { tok = INT 10; _ };
      { tok = EOF; _ } ] ->
      ()
  | toks ->
      Alcotest.failf "unexpected tokens: %s"
        (String.concat " " (List.map (fun (t : Lexer.positioned) -> Lexer.token_to_string t.tok) toks))

let test_lexer_annotations () =
  let toks = Lexer.tokenize "-- plain comment\n--# pre x > 0;\n--# continuation" in
  let kinds = List.map (fun (t : Lexer.positioned) -> t.tok) (Lexer.to_list toks) in
  Alcotest.(check bool)
    "annotation keyword surfaced" true
    (List.mem (Lexer.ANNOT "pre") kinds)

let test_lexer_error_position () =
  match Lexer.tokenize "x :=\n  ?" with
  | exception Lexer.Error (_, 2, _) -> ()
  | exception Lexer.Error (_, l, _) -> Alcotest.failf "wrong line %d" l
  | _ -> Alcotest.fail "expected lexical error"

let test_parse_program () =
  let _, prog = checked () in
  Alcotest.(check string) "name" "demo" prog.Ast.prog_name;
  Alcotest.(check int) "subprograms" 5 (List.length (Ast.subprograms prog))

let test_roundtrip_program () =
  let _, prog = checked () in
  let printed = Pretty.program_to_string prog in
  let _, reparsed = parse_check printed in
  if not (prog = reparsed) then begin
    let printed2 = Pretty.program_to_string reparsed in
    Alcotest.failf "round-trip mismatch:@.--- first ---@.%s@.--- second ---@.%s"
      printed printed2
  end

let test_parse_errors () =
  let bad = [ "program p is end q;"; "program p is x : ; end p;";
              "program p is procedure f is begin null; end g; end p;" ] in
  List.iter
    (fun src ->
      match Parser.of_string src with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" src)
    bad

let test_typecheck_rejects () =
  let reject src frag =
    match parse_check src with
    | exception Typecheck.Type_error msg ->
        if not (Astring.String.is_infix ~affix:frag msg) then ()
    | _ -> Alcotest.failf "expected type error for %S" src
  in
  (* assignment to in-parameter *)
  reject
    {|program p is
       procedure f (x : in integer) is begin x := 1; end f;
      end p;|}
    "in-parameter";
  (* function with out parameter *)
  reject
    {|program p is
       function f (x : out integer) return integer is begin return 1; end f;
      end p;|}
    "non-in";
  (* unknown variable *)
  reject {|program p is
       procedure f is begin y := 1; end f;
      end p;|} "unknown";
  (* boolean guard required *)
  reject
    {|program p is
       procedure f (x : in integer) is begin if x then null; end if; end f;
      end p;|}
    "mismatch";
  (* aliased out actuals *)
  reject
    {|program p is
       procedure g (a : out integer; b : out integer) is begin a := 1; b := 2; end g;
       procedure f is
         z : integer;
       begin
         g (z, z);
       end f;
      end p;|}
    "aliased";
  (* mixed moduli *)
  reject
    {|program p is
       type b8 is mod 256;
       type b16 is mod 65536;
       procedure f (x : in b8; y : in b16; r : out b16) is begin r := x xor y; end f;
      end p;|}
    "moduli"

let test_call_index_normalisation () =
  let env, prog =
    parse_check
      {|program p is
         type vec is array (0 .. 3) of integer;
         function pick (a : in vec; k : in integer) return integer
         is
         begin
           return a (k);
         end pick;
        end p;|}
  in
  ignore env;
  let sub = Ast.find_sub_exn prog "pick" in
  match sub.Ast.sub_body with
  | [ Ast.Return (Some (Ast.Index (Ast.Var "a", Ast.Var "k"))) ] -> ()
  | _ -> Alcotest.failf "not normalised: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

let test_shift_normalisation () =
  let _, prog =
    parse_check
      {|program p is
         type word is mod 4294967296;
         function hi_byte (w : in word) return word
         is
         begin
           return shift_right (w, 24) and 255;
         end hi_byte;
        end p;|}
  in
  let sub = Ast.find_sub_exn prog "hi_byte" in
  match sub.Ast.sub_body with
  | [ Ast.Return (Some (Ast.Binop (Ast.Band, Ast.Binop (Ast.Shr, _, _), _))) ] -> ()
  | _ -> Alcotest.failf "not normalised: %s" (Pretty.stmts_to_string sub.Ast.sub_body)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let rt () =
  let env, prog = checked () in
  Interp.make env prog

let vint n = Value.Vint n

let test_interp_function () =
  let r = Interp.run_function (rt ()) "add3" [ vint 1; vint 2; vint 3 ] in
  Alcotest.(check int) "add3" 6 (Value.as_int r)

let test_interp_modular_wrap () =
  let r = Interp.run_function (rt ()) "add3" [ vint 200; vint 100; vint 0 ] in
  Alcotest.(check int) "wraps mod 256" 44 (Value.as_int r)

let test_interp_loop_xor () =
  let a = Value.Varray (0, [| vint 1; vint 2; vint 4; vint 8 |]) in
  let r = Interp.run_function (rt ()) "sum" [ a ] in
  Alcotest.(check int) "xor fold" 15 (Value.as_int r)

let test_interp_procedure_out () =
  match Interp.run_procedure (rt ()) "classify" [ vint (-7) ] with
  | [ r ] -> Alcotest.(check int) "classify -7" (-1) (Value.as_int r)
  | _ -> Alcotest.fail "expected one out value"

let test_interp_swap () =
  match Interp.run_procedure (rt ()) "swap" [ vint 3; vint 9 ] with
  | [ a; b ] ->
      Alcotest.(check int) "a" 9 (Value.as_int a);
      Alcotest.(check int) "b" 3 (Value.as_int b)
  | _ -> Alcotest.fail "expected two out values"

let test_interp_gcd () =
  match Interp.run_procedure (rt ()) "gcd" [ vint 48; vint 36 ] with
  | [ g ] -> Alcotest.(check int) "gcd" 12 (Value.as_int g)
  | _ -> Alcotest.fail "expected one out value"

let test_interp_index_error () =
  let a = Value.Varray (0, [| vint 1; vint 2; vint 4; vint 8 |]) in
  let env, prog = checked () in
  let prog' =
    Ast.update_sub prog "sum" (fun s ->
        { s with Ast.sub_body = Parser.stmts_of_string "return a (11);" })
  in
  (* bypass typecheck re-run: Call/Index normalisation needed *)
  let _, prog' = Typecheck.check prog' in
  ignore env;
  let r = Interp.make (fst (Typecheck.check prog')) prog' in
  match Interp.run_function r "sum" [ a ] with
  | exception Interp.Stuck msg ->
      Alcotest.(check bool) "mentions range" true
        (Astring.String.is_infix ~affix:"out of range" msg)
  | _ -> Alcotest.fail "expected runtime error"

let test_interp_fuel () =
  let env, prog =
    parse_check
      {|program p is
         procedure spin (r : out integer) is
         begin
           r := 0;
           while true loop
             r := r + 1;
           end loop;
         end spin;
        end p;|}
  in
  let r = Interp.make ~fuel:10_000 env prog in
  match Interp.run_procedure r "spin" [] with
  | exception Interp.Out_of_fuel -> ()
  | exception Interp.Stuck msg ->
      Alcotest.fail (Printf.sprintf "expected Out_of_fuel, got Stuck %s" msg)
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_quantifier_eval () =
  let env, prog = checked () in
  let r = Interp.make env prog in
  let e = Parser.expr_of_string "(for all k in 0 .. 3 => k < 4)" in
  Alcotest.(check bool) "forall" true
    (Value.as_bool (Interp.eval_expr r [] e));
  let e = Parser.expr_of_string "(for some k in 0 .. 3 => k > 5)" in
  Alcotest.(check bool) "exists" false
    (Value.as_bool (Interp.eval_expr r [] e))

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* Random expressions over a small integer context; pretty-print then
   re-parse must be the identity. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> Ast.Int_lit n) (int_range (-100) 100);
        map (fun b -> Ast.Bool_lit b) bool;
        oneofl [ Ast.Var "x"; Ast.Var "y"; Ast.Var "z" ] ]
  in
  let numeric_leaf =
    oneof
      [ map (fun n -> Ast.Int_lit n) (int_range (-100) 100);
        oneofl [ Ast.Var "x"; Ast.Var "y" ] ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (3,
             map2
               (fun op (a, b) -> Ast.Binop (op, a, b))
               (oneofl Ast.[ Add; Sub; Mul; Eq; Lt; Le ])
               (pair (self (depth - 1)) (self (depth - 1))));
            (* Neg of a literal is folded by the parser, so only negate
               variables in round-trip material *)
            (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (oneofl [ Ast.Var "x"; Ast.Var "y" ]));
            (1, map (fun a -> Ast.Unop (Ast.Not, a)) (self (depth - 1)));
            (1,
             map2
               (fun (a, b) c -> Ast.Quantified (Ast.Forall, "q", a, b, Ast.Binop (Ast.Le, c, c)))
               (pair numeric_leaf numeric_leaf)
               (self (depth - 1))) ])
    4

let arbitrary_expr =
  QCheck.make ~print:(fun e -> Pretty.expr_to_string e) gen_expr

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"pretty/parse expression round-trip" ~count:500
    arbitrary_expr (fun e ->
      let printed = Pretty.expr_to_string e in
      let reparsed = Parser.expr_of_string printed in
      reparsed = e)

(* Pretty/parse round-trip of random straight-line programs. *)
let gen_stmt =
  let open QCheck.Gen in
  let target = oneofl [ "x"; "y"; "z" ] in
  let small = map (fun n -> Ast.Int_lit n) (int_range 0 20) in
  let rhs =
    oneof
      [ small;
        map2 (fun a b -> Ast.Binop (Ast.Add, Ast.Var a, b)) target small ]
  in
  fix
    (fun self depth ->
      if depth = 0 then map2 (fun x e -> Ast.Assign (Ast.Lvar x, e)) target rhs
      else
        frequency
          [ (4, map2 (fun x e -> Ast.Assign (Ast.Lvar x, e)) target rhs);
            (1,
             map3
               (fun g a b -> Ast.If ([ (Ast.Binop (Ast.Lt, Ast.Var g, Ast.Int_lit 5), [ a ]) ], [ b ]))
               target (self (depth - 1)) (self (depth - 1)));
            (1,
             map (fun body ->
                 Ast.For
                   {
                     Ast.for_var = "k";
                     for_reverse = false;
                     for_lo = Ast.Int_lit 0;
                     for_hi = Ast.Int_lit 3;
                     for_invariants = [];
                     for_body = [ body ];
                   })
               (self (depth - 1))) ])
    3

let arbitrary_stmts =
  QCheck.make
    ~print:(fun ss -> Pretty.stmts_to_string ss)
    QCheck.Gen.(list_size (int_range 1 6) gen_stmt)

let prop_stmts_roundtrip =
  QCheck.Test.make ~name:"pretty/parse statement round-trip" ~count:300
    arbitrary_stmts (fun ss ->
      let printed = Pretty.stmts_to_string ss in
      Parser.stmts_of_string printed = ss)

let suites =
  [ ( "minispark:lexer",
      [ Alcotest.test_case "hex literals" `Quick test_lexer_hex;
        Alcotest.test_case "annotation markers" `Quick test_lexer_annotations;
        Alcotest.test_case "error position" `Quick test_lexer_error_position ] );
    ( "minispark:parser",
      [ Alcotest.test_case "parse sample program" `Quick test_parse_program;
        Alcotest.test_case "program round-trip" `Quick test_roundtrip_program;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        QCheck_alcotest.to_alcotest prop_stmts_roundtrip ] );
    ( "minispark:typecheck",
      [ Alcotest.test_case "rejects ill-typed programs" `Quick test_typecheck_rejects;
        Alcotest.test_case "call/index normalisation" `Quick test_call_index_normalisation;
        Alcotest.test_case "shift intrinsics" `Quick test_shift_normalisation ] );
    ( "minispark:interp",
      [ Alcotest.test_case "function call" `Quick test_interp_function;
        Alcotest.test_case "modular wrap" `Quick test_interp_modular_wrap;
        Alcotest.test_case "loop xor" `Quick test_interp_loop_xor;
        Alcotest.test_case "procedure out param" `Quick test_interp_procedure_out;
        Alcotest.test_case "swap in-out" `Quick test_interp_swap;
        Alcotest.test_case "gcd while loop" `Quick test_interp_gcd;
        Alcotest.test_case "index out of range" `Quick test_interp_index_error;
        Alcotest.test_case "fuel exhaustion" `Quick test_interp_fuel;
        Alcotest.test_case "quantifier evaluation" `Quick test_quantifier_eval ] ) ]
