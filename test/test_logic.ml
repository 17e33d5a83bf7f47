(* Tests for the logic substrate: simplifier and prover. *)

module F = Logic.Formula
module S = Logic.Simplify
module P = Logic.Prover

let t_formula = Alcotest.testable (fun ppf f -> F.pp ppf f) F.equal

let simp s = S.simplify s

let test_constant_folding () =
  Alcotest.check t_formula "add" (F.num 7)
    (simp (F.app F.Add [ F.num 3; F.num 4 ]));
  Alcotest.check t_formula "nested" (F.num 20)
    (simp (F.app F.Mul [ F.app F.Add [ F.num 1; F.num 4 ]; F.num 4 ]));
  Alcotest.check t_formula "wrap" (F.num 44)
    (simp (F.app (F.Wrap 256) [ F.num 300 ]));
  Alcotest.check t_formula "xor" (F.num 6)
    (simp (F.app (F.Bxor 256) [ F.num 3; F.num 5 ]))

let test_linear_normalisation () =
  let x = F.var "x" in
  Alcotest.check t_formula "x+1-1 = x" F.tru
    (simp (F.eq (F.app F.Sub [ F.app F.Add [ x; F.num 1 ]; F.num 1 ]) x));
  Alcotest.check t_formula "2x - x = x" F.tru
    (simp (F.eq (F.app F.Sub [ F.app F.Mul [ F.num 2; x ]; x ]) x));
  Alcotest.check t_formula "x < x + 1" F.tru
    (simp (F.app F.Lt [ x; F.app F.Add [ x; F.num 1 ] ]))

let test_select_store () =
  let a = F.var "a" and i = F.var "i" in
  Alcotest.check t_formula "read own write" (F.num 5)
    (simp (F.select (F.store a i (F.num 5)) i));
  Alcotest.check t_formula "read other index" (F.select a (F.num 2))
    (simp (F.select (F.store a (F.num 1) (F.num 5)) (F.num 2)));
  Alcotest.check t_formula "read past i+1 write at i"
    (F.select a i)
    (simp (F.select (F.store a (F.app F.Add [ i; F.num 1 ]) (F.num 5)) i))

let test_xor_cancellation () =
  let x = F.var "x" and y = F.var "y" in
  Alcotest.check t_formula "x xor x = 0" (F.num 0)
    (simp (F.app (F.Bxor 256) [ x; x ]));
  Alcotest.check t_formula "commutes" F.tru
    (simp (F.eq (F.app (F.Bxor 256) [ x; y ]) (F.app (F.Bxor 256) [ y; x ])));
  Alcotest.check t_formula "(x xor y) xor y = x" x
    (simp (F.app (F.Bxor 256) [ F.app (F.Bxor 256) [ x; y ]; y ]))

let test_quantifier_expansion () =
  let body = F.app F.Le [ F.var "k"; F.num 10 ] in
  Alcotest.check t_formula "small forall expands to true" F.tru
    (simp (F.forall "k" (F.num 0) (F.num 3) body));
  Alcotest.check t_formula "empty range" F.tru
    (simp (F.forall "k" (F.num 5) (F.num 2) F.fls))

let test_arrlit_select () =
  let table = F.app (F.Arrlit 0) [ F.num 10; F.num 20; F.num 30 ] in
  Alcotest.check t_formula "table lookup folds" (F.num 20)
    (simp (F.select table (F.num 1)))

(* ---------------- prover ---------------- *)

let vc ?(hyps = []) goal =
  { F.vc_name = "t"; vc_sub = "t"; vc_kind = F.Vc_assert; vc_hyps = hyps; vc_goal = goal }

let proved ?hints ?cfg v =
  P.is_proved (P.prove_vc ?cfg ?hints (vc ~hyps:v.F.vc_hyps v.F.vc_goal))

let check_proved name ?(hyps = []) ?hints ?cfg goal =
  Alcotest.(check bool) name true (proved ?hints ?cfg (vc ~hyps goal))

let check_unproved name ?(hyps = []) ?hints goal =
  Alcotest.(check bool) name false (proved ?hints (vc ~hyps goal))

let test_prover_tautologies () =
  let x = F.var "x" in
  check_proved "x = x" (F.eq x x);
  check_proved "ground" (F.app F.Lt [ F.num 3; F.num 5 ]);
  check_unproved "x = y unprovable" (F.eq x (F.var "y"))

let test_prover_linear () =
  let x = F.var "x" and y = F.var "y" in
  check_proved "transitive"
    ~hyps:[ F.app F.Le [ x; y ]; F.app F.Le [ y; F.num 10 ] ]
    (F.app F.Le [ x; F.num 10 ]);
  check_proved "strict combination"
    ~hyps:[ F.app F.Lt [ x; y ]; F.app F.Lt [ y; F.num 5 ] ]
    (F.app F.Lt [ x; F.num 4 ]);
  check_unproved "false bound"
    ~hyps:[ F.app F.Le [ x; F.num 10 ] ]
    (F.app F.Le [ x; F.num 9 ])

let test_prover_equalities () =
  let x = F.var "x" and y = F.var "y" in
  check_proved "substitution"
    ~hyps:[ F.eq x (F.num 4) ]
    (F.app F.Lt [ x; F.num 5 ]);
  check_proved "chained"
    ~hyps:[ F.eq x y; F.eq y (F.num 2) ]
    (F.eq x (F.num 2))

let test_prover_case_split () =
  let x = F.var "x" in
  (* x in 0..7 => x*x <= 49: needs enumeration since it is nonlinear *)
  check_proved "nonlinear by enumeration"
    ~hyps:[ F.app F.Ge [ x; F.num 0 ]; F.app F.Le [ x; F.num 7 ] ]
    (F.app F.Le [ F.app F.Mul [ x; x ]; F.num 49 ])

let test_prover_interp () =
  let cfg =
    { P.default_config with
      P.interp = Some (fun name args ->
        match (name, args) with
        | "double", [ n ] -> Some (2 * n)
        | _ -> None) }
  in
  check_proved "uf evaluation" ~cfg
    (F.eq (F.app (F.Uf "double") [ F.num 21 ]) (F.num 42))

let test_prover_induction_hint () =
  (* goal: forall k in 0 .. i: select(a,k) = 0, hyps: the prefix invariant
     and the last element; needs the range-split (induction) hint *)
  let a = F.var "a" and i = F.var "i" in
  let body = F.eq (F.select a (F.var "k")) (F.num 0) in
  let prefix = F.forall "k" (F.num 0) (F.app F.Sub [ i; F.num 1 ]) body in
  let goal = F.forall "k" (F.num 0) i body in
  let hyps = [ prefix; F.eq (F.select a i) (F.num 0); F.app F.Ge [ i; F.num 0 ] ] in
  check_unproved "not without hint" ~hyps goal;
  check_proved "with induction hint" ~hyps ~hints:[ P.Hint_induction ] goal

let test_prover_apply_hyp_hint () =
  (* quantified hypothesis instantiated at a goal index *)
  let a = F.var "a" in
  let hyp = F.forall "k" (F.num 0) (F.num 100)
              (F.app F.Ge [ F.select a (F.var "k"); F.num 0 ]) in
  let goal = F.app F.Ge [ F.select a (F.num 17); F.num 0 ] in
  check_unproved "not without hint" ~hyps:[ hyp ] goal;
  check_proved "with apply hint" ~hyps:[ hyp ] ~hints:[ P.Hint_apply_hyp ] goal

(* pattern-directed instantiation: a hypothesis [forall cc ..] whose body
   reads [select(select(dst, cc), rr)] is instantiated where the goal
   reads [dst], here through a store at another column.  The rows' bound
   is symbolic so that the simplifier does not unroll the inner
   quantifier. *)
let test_prover_trigger_through_store () =
  let dst = F.var "dst" and src = F.var "src" and row = F.var "row" in
  let c = F.var "c" and k = F.var "k" and r = F.var "r" and m = F.var "m" in
  let cell a i j = F.select (F.select a i) j in
  let hyp =
    F.forall "cc" (F.num 0) (F.app F.Sub [ c; F.num 1 ])
      (F.forall "rr" (F.num 0) m
         (F.eq (cell dst (F.var "cc") (F.var "rr")) (cell src (F.var "rr") (F.var "cc"))))
  in
  let ranges =
    [ F.app F.Ge [ c; F.num 0 ]; F.app F.Le [ c; F.num 3 ];
      F.app F.Ge [ k; F.num 0 ]; F.app F.Le [ k; F.app F.Sub [ c; F.num 1 ] ];
      F.app F.Ge [ r; F.num 0 ]; F.app F.Le [ r; m ] ]
  in
  let goal = F.eq (cell (F.app F.Store [ dst; c; row ]) k r) (cell src r k) in
  let res = P.prove_vc ~hints:P.standard_hints (vc ~hyps:(hyp :: ranges) goal) in
  Alcotest.(check bool) "proved" true (P.is_proved res);
  Alcotest.(check int) "at the apply-hypothesis level" 1 res.P.pr_hints_used

(* an instance whose body is a conjunction gives one fact per conjunct:
   with the constant row range, the simplifier unrolls [rr] into a 4-way
   [and], and the goal is one of its instances *)
let test_prover_instance_conjuncts () =
  let dst = F.var "dst" and src = F.var "src" in
  let c = F.var "c" and k = F.var "k" and r = F.var "r" in
  let cell a i j = F.select (F.select a i) j in
  let hyp =
    F.forall "cc" (F.num 0) (F.app F.Sub [ c; F.num 1 ])
      (F.forall "rr" (F.num 0) (F.num 3)
         (F.eq (cell dst (F.var "cc") (F.var "rr")) (cell src (F.var "rr") (F.var "cc"))))
  in
  let ranges =
    [ F.app F.Ge [ k; F.num 0 ]; F.app F.Le [ k; F.app F.Sub [ c; F.num 1 ] ];
      F.app F.Ge [ r; F.num 0 ]; F.app F.Le [ r; F.num 3 ] ]
  in
  let goal = F.eq (cell dst k r) (cell src r k) in
  let res = P.prove_vc ~hints:P.standard_hints (vc ~hyps:(hyp :: ranges) goal) in
  Alcotest.(check bool) "proved" true (P.is_proved res);
  Alcotest.(check int) "at the apply-hypothesis level" 1 res.P.pr_hints_used

(* a hypothesis whose trigger is [b] is not instantiated at the indices of
   a goal that reads only [a]: it costs the search no step, while the same
   fact over [a] is instantiated and proves the goal *)
let test_prover_no_instance_off_trigger () =
  let a = F.var "a" and b = F.var "b" and j = F.var "j" and n = F.var "n" in
  let zero_up_to_n arr = F.forall "k" (F.num 0) n (F.eq (F.select arr (F.var "k")) (F.num 0)) in
  let ranges = [ F.app F.Ge [ j; F.num 0 ]; F.app F.Le [ j; n ] ] in
  let goal = F.eq (F.select a j) (F.num 0) in
  let run hyps = P.prove_vc ~hints:P.standard_hints (vc ~hyps goal) in
  let without = run ranges and over_b = run (zero_up_to_n b :: ranges) in
  Alcotest.(check bool) "unproved without the fact" false (P.is_proved without);
  Alcotest.(check bool) "unproved with a fact over b" false (P.is_proved over_b);
  Alcotest.(check int) "a fact over b adds no step" without.P.pr_steps over_b.P.pr_steps;
  let over_a = run (zero_up_to_n a :: ranges) in
  Alcotest.(check bool) "a fact over a is instantiated" true (P.is_proved over_a);
  Alcotest.(check int) "at the apply-hypothesis level" 1 over_a.P.pr_hints_used

(* a hypothesis whose bound variable is never a direct select index has no
   trigger and keeps the old candidates: every select index and every
   variable of the goal *)
let test_prover_no_trigger_fallback () =
  let a = F.var "a" and j = F.var "j" in
  let hyp =
    F.forall "k" (F.num 0) (F.num 100)
      (F.app F.Ge [ F.select a (F.app F.Add [ F.var "k"; F.num 1 ]); F.num 0 ])
  in
  let hyps = [ hyp; F.app F.Ge [ j; F.num 0 ]; F.app F.Le [ j; F.num 100 ] ] in
  let goal = F.app F.Ge [ F.select a (F.app F.Add [ j; F.num 1 ]); F.num 0 ] in
  check_unproved "not without hint" ~hyps goal;
  check_proved "with apply hint" ~hyps ~hints:[ P.Hint_apply_hyp ] goal

let test_prover_unfold_hint () =
  let f_body = F.app F.Add [ F.var "p"; F.num 1 ] in
  let goal = F.eq (F.app (F.Uf "succ") [ F.num 4 ]) (F.num 5) in
  check_unproved "not without hint" goal;
  check_proved "with unfold hint"
    ~hints:[ P.Hint_unfold ("succ", [ "p" ], f_body) ]
    goal

(* property: the simplifier preserves ground truth *)
let gen_ground_formula =
  let open QCheck.Gen in
  let num = map (fun n -> F.num n) (int_range (-20) 20) in
  fix
    (fun self depth ->
      if depth = 0 then num
      else
        frequency
          [ (2, num);
            (2,
             map2
               (fun op (a, b) -> F.app op [ a; b ])
               (oneofl [ F.Add; F.Sub; F.Mul ])
               (pair (self (depth - 1)) (self (depth - 1))));
            (1,
             map2
               (fun op (a, b) -> F.app op [ a; b ])
               (oneofl [ F.Bxor 256; F.Band 256; F.Bor 256 ])
               (pair (self (depth - 1)) (self (depth - 1)))) ])
    4

let prop_simplify_sound =
  QCheck.Test.make ~name:"simplifier preserves ground values" ~count:500
    (QCheck.make ~print:F.to_string gen_ground_formula)
    (fun f ->
      let cfg = P.default_config in
      match (P.eval_ground cfg f, P.eval_ground cfg (S.simplify f)) with
      | Some a, Some b -> a = b
      | None, _ -> QCheck.assume_fail ()
      | Some _, None -> false)

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplifier idempotent on ground terms" ~count:300
    (QCheck.make ~print:F.to_string gen_ground_formula)
    (fun f ->
      let s = S.simplify f in
      F.equal (S.simplify s) s)

let suites =
  [ ( "logic:simplify",
      [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
        Alcotest.test_case "linear normalisation" `Quick test_linear_normalisation;
        Alcotest.test_case "select/store" `Quick test_select_store;
        Alcotest.test_case "xor cancellation" `Quick test_xor_cancellation;
        Alcotest.test_case "quantifier expansion" `Quick test_quantifier_expansion;
        Alcotest.test_case "array literal lookup" `Quick test_arrlit_select;
        QCheck_alcotest.to_alcotest prop_simplify_sound;
        QCheck_alcotest.to_alcotest prop_simplify_idempotent ] );
    ( "logic:prover",
      [ Alcotest.test_case "tautologies" `Quick test_prover_tautologies;
        Alcotest.test_case "linear arithmetic" `Quick test_prover_linear;
        Alcotest.test_case "equational rewriting" `Quick test_prover_equalities;
        Alcotest.test_case "bounded case split" `Quick test_prover_case_split;
        Alcotest.test_case "program function evaluation" `Quick test_prover_interp;
        Alcotest.test_case "induction hint" `Quick test_prover_induction_hint;
        Alcotest.test_case "apply-hypothesis hint" `Quick test_prover_apply_hyp_hint;
        Alcotest.test_case "trigger matches a read through a store" `Quick
          test_prover_trigger_through_store;
        Alcotest.test_case "instance conjuncts are facts" `Quick
          test_prover_instance_conjuncts;
        Alcotest.test_case "no instance off the triggers" `Quick
          test_prover_no_instance_off_trigger;
        Alcotest.test_case "no-trigger fallback" `Quick test_prover_no_trigger_fallback;
        Alcotest.test_case "unfold hint" `Quick test_prover_unfold_hint ] ) ]
