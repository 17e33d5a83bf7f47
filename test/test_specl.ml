(* Tests for the specification language substrate: evaluator semantics,
   printer, and the match-ratio metric. *)

open Specl.Sast
module V = Specl.Seval

let tiny_theory =
  {
    th_name = "tiny";
    th_types = [ ("byte", Smod 256) ];
    th_defs =
      [ { sd_name = "double"; sd_kind = Dfun;
          sd_params = [ ("x", Snamed "byte") ]; sd_ret = Snamed "byte";
          sd_body = Sprim (Pmod, [ Sprim (Pmul, [ Svar "x"; Sint_lit 2 ]); Sint_lit 256 ]) };
        { sd_name = "lut"; sd_kind = Dtable; sd_params = [];
          sd_ret = Sarray (0, 3, Snamed "byte");
          sd_body = Sarray_lit (0, [ Sint_lit 10; Sint_lit 20; Sint_lit 30; Sint_lit 40 ]) };
        { sd_name = "sum4"; sd_kind = Dfun;
          sd_params = [ ("a", Sarray (0, 3, Snamed "byte")) ]; sd_ret = Sint;
          sd_body =
            Sfold
              { f_var = "i"; f_lo = Sint_lit 0; f_hi = Sint_lit 3; f_acc = "acc";
                f_init = Sint_lit 0;
                f_body = Sprim (Padd, [ Svar "acc"; Sindex (Svar "a", Svar "i") ]) } };
        { sd_name = "iota"; sd_kind = Dfun; sd_params = [ ("n", Sint) ];
          sd_ret = Sarray (0, 7, Sint);
          sd_body = Stabulate (0, 7, "k", Sprim (Pmul, [ Svar "k"; Svar "n" ])) } ];
  }

let env () = V.make tiny_theory

let test_eval_fun () =
  Alcotest.(check int) "double 100" 200 (V.as_int (V.apply (env ()) "double" [ V.Vint 100 ]));
  Alcotest.(check int) "double wraps" 144 (V.as_int (V.apply (env ()) "double" [ V.Vint 200 ]))

let test_eval_table () =
  let v = V.eval (env ()) [] (Sindex (Svar "lut", Sint_lit 2)) in
  Alcotest.(check int) "lut(2)" 30 (V.as_int v)

let test_eval_fold () =
  let a = V.Varr (0, [| V.Vint 1; V.Vint 2; V.Vint 3; V.Vint 4 |]) in
  Alcotest.(check int) "sum4" 10 (V.as_int (V.apply (env ()) "sum4" [ a ]))

let test_eval_tabulate () =
  match V.apply (env ()) "iota" [ V.Vint 3 ] with
  | V.Varr (0, data) ->
      Alcotest.(check int) "len" 8 (Array.length data);
      Alcotest.(check int) "iota(3).(5)" 15 (V.as_int data.(5))
  | _ -> Alcotest.fail "expected array"

let test_eval_update () =
  let e = Supdate (Svar "lut", Sint_lit 1, Sint_lit 99) in
  match V.eval (env ()) [] e with
  | V.Varr (0, data) -> Alcotest.(check int) "updated" 99 (V.as_int data.(1))
  | _ -> Alcotest.fail "expected array"

let test_eval_fuel () =
  let looping =
    { th_name = "loop"; th_types = [];
      th_defs =
        [ { sd_name = "spin"; sd_kind = Dfun; sd_params = [ ("x", Sint) ]; sd_ret = Sint;
            sd_body = Sapp ("spin", [ Svar "x" ]) } ] }
  in
  let env = V.make ~fuel:1000 looping in
  match V.apply env "spin" [ V.Vint 0 ] with
  | exception V.Error m ->
      Alcotest.(check bool) "fuel message" true (Astring.String.is_infix ~affix:"fuel" m)
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* scalar applications are memoized per domain; a freshly spawned domain
   starts cold *)
let test_eval_memo_warm_cold () =
  let apply env = V.as_int (V.apply env "double" [ V.Vint 77 ]) in
  let cold = Domain.join (Domain.spawn (fun () -> apply (env ()))) in
  let first = apply (env ()) in
  let s0 = V.memo_stats () in
  let warm_env = V.make ~fuel:1000 tiny_theory in
  let warm = apply warm_env in
  Alcotest.(check int) "cold value" 154 cold;
  Alcotest.(check int) "warm = cold" cold warm;
  Alcotest.(check int) "first = cold" cold first;
  Alcotest.(check int) "a memo hit" 1 (Memo.diff (V.memo_stats ()) s0).Memo.hits;
  Alcotest.(check int) "a hit spends no fuel" 1000 warm_env.V.fuel

let test_printer () =
  let s = Specl.Spretty.theory_to_string tiny_theory in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("mentions " ^ frag) true
        (Astring.String.is_infix ~affix:frag s))
    [ "tiny : THEORY"; "double"; "FOLD"; "LAMBDA" ]

(* ---------------- match ratio ---------------- *)

let test_match_ratio_identity () =
  let r =
    Specl.Match_ratio.compare ~original:tiny_theory ~extracted:tiny_theory ()
  in
  Alcotest.(check int) "all matched" r.Specl.Match_ratio.mr_total
    r.Specl.Match_ratio.mr_matched

let test_match_ratio_partial () =
  let extracted =
    { tiny_theory with
      th_defs = List.filter (fun d -> d.sd_name <> "sum4") tiny_theory.th_defs }
  in
  let r = Specl.Match_ratio.compare ~original:tiny_theory ~extracted () in
  Alcotest.(check bool) "below 100%" true (r.Specl.Match_ratio.mr_ratio < 1.0);
  Alcotest.(check bool) "sum4 unmatched" true
    (List.exists
       (fun e -> Specl.Match_ratio.element_name e = "sum4")
       r.Specl.Match_ratio.mr_unmatched)

let test_match_ratio_synonyms () =
  let renamed =
    { tiny_theory with
      th_defs =
        List.map
          (fun d -> if d.sd_name = "double" then { d with sd_name = "twice" } else d)
          tiny_theory.th_defs }
  in
  let without = Specl.Match_ratio.compare ~original:tiny_theory ~extracted:renamed () in
  let with_syn =
    Specl.Match_ratio.compare ~synonyms:[ ("double", "twice") ] ~original:tiny_theory
      ~extracted:renamed ()
  in
  Alcotest.(check bool) "synonym recovers the match" true
    (with_syn.Specl.Match_ratio.mr_matched > without.Specl.Match_ratio.mr_matched)

let test_normalise () =
  Alcotest.(check string) "case/underscore-insensitive" "subbytes"
    (Specl.Match_ratio.normalise "Sub_Bytes")

let suites =
  [ ( "specl",
      [ Alcotest.test_case "function evaluation" `Quick test_eval_fun;
        Alcotest.test_case "table lookup" `Quick test_eval_table;
        Alcotest.test_case "fold" `Quick test_eval_fold;
        Alcotest.test_case "tabulate" `Quick test_eval_tabulate;
        Alcotest.test_case "functional update" `Quick test_eval_update;
        Alcotest.test_case "recursion fuel" `Quick test_eval_fuel;
        Alcotest.test_case "scalar application memo: warm = cold" `Quick
          test_eval_memo_warm_cold;
        Alcotest.test_case "PVS-style printer" `Quick test_printer;
        Alcotest.test_case "match ratio: identity" `Quick test_match_ratio_identity;
        Alcotest.test_case "match ratio: partial" `Quick test_match_ratio_partial;
        Alcotest.test_case "match ratio: synonyms" `Quick test_match_ratio_synonyms;
        Alcotest.test_case "name normalisation" `Quick test_normalise ] ) ]
