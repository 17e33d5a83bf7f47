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

(* a theory whose two-byte function takes the dense-table path *)
let byte_theory () =
  {
    th_name = "bytes";
    th_types = [ ("byte", Smod 256) ];
    th_defs =
      [ { sd_name = "mix"; sd_kind = Dfun;
          sd_params = [ ("a", Snamed "byte"); ("b", Snamed "byte") ];
          sd_ret = Snamed "byte";
          sd_body =
            Sif
              ( Sprim (Peq, [ Svar "a"; Sint_lit 3 ]),
                Sprim (Pdiv, [ Svar "b"; Sint_lit 0 ]),
                Sprim (Pbxor, [ Svar "a"; Sprim (Pmul, [ Svar "b"; Sint_lit 3 ]) ]) ) } ];
  }

(* in a fresh domain: the memo's events and the fuel spent by [f] *)
let measured th f =
  Domain.join
    (Domain.spawn (fun () ->
         let env = V.make ~fuel:1000 th in
         let s0 = V.memo_stats () in
         let r = try Ok (f env) with V.Error m -> Error m in
         (r, Memo.diff (V.memo_stats ()) s0, 1000 - env.V.fuel)))

let test_dense_hit () =
  let th = byte_theory () in
  let mix env = V.as_int (V.apply env "mix" [ V.Vint 5; V.Vint 7 ]) in
  let r, d, spent =
    measured th (fun env ->
        let cold = mix env in
        let warm_env = V.make ~fuel:1000 th in
        let warm = mix warm_env in
        Alcotest.(check int) "a hit spends no fuel" 1000 warm_env.V.fuel;
        (cold, warm))
  in
  Alcotest.(check bool) "warm = cold" true (r = Ok (5 lxor 21, 5 lxor 21));
  Alcotest.(check int) "one miss" 1 d.Memo.misses;
  Alcotest.(check int) "one hit" 1 d.Memo.hits;
  Alcotest.(check bool) "the cold call spent fuel" true (spent > 0)

let test_dense_raise_not_stored () =
  let th = byte_theory () in
  let boom env = V.apply env "mix" [ V.Vint 3; V.Vint 9 ] in
  let r, d, _ =
    measured th (fun env ->
        let first = try Ok (boom env) with V.Error m -> Error m in
        let second = try Ok (boom (V.make th)) with V.Error m -> Error m in
        (first, second))
  in
  Alcotest.(check bool) "raises, then raises again" true
    (r = Ok (Error "division by zero", Error "division by zero"));
  Alcotest.(check int) "two misses" 2 d.Memo.misses;
  Alcotest.(check int) "no hit" 0 d.Memo.hits;
  (* out of fuel is not stored either: a larger budget then succeeds *)
  let r, d, _ =
    measured th (fun env ->
        let starved = V.make ~fuel:2 th in
        let first = try Ok (V.apply starved "mix" [ V.Vint 5; V.Vint 7 ]) with V.Error m -> Error m in
        (first, V.apply env "mix" [ V.Vint 5; V.Vint 7 ]))
  in
  Alcotest.(check bool) "out of fuel, then the value" true
    (r = Ok (Error "specification evaluation out of fuel", V.Vint (5 lxor 21)));
  Alcotest.(check int) "two misses after fuel exhaustion" 2 d.Memo.misses

let test_spawned_domain_cold () =
  let th = byte_theory () in
  let mix env = V.as_int (V.apply env "mix" [ V.Vint 1; V.Vint 2 ]) in
  let here = V.make th in
  ignore (mix here);
  ignore (mix (V.make th));
  let r, d, spent = measured th mix in
  Alcotest.(check bool) "the value" true (r = Ok (1 lxor 6));
  Alcotest.(check int) "a miss in the new domain" 1 d.Memo.misses;
  Alcotest.(check int) "no hit there" 0 d.Memo.hits;
  Alcotest.(check bool) "the body ran there" true (spent > 0)

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

(* ---------------- compiled evaluator = tree-walking reference ---------------- *)

(* What an evaluation shows from outside: the value, the [Error] message
   or another exception, and the fuel left. *)
let observe env f =
  let r =
    match f () with
    | v -> Ok v
    | exception V.Error m -> Error ("error: " ^ m)
    | exception e -> Error ("raised: " ^ Printexc.to_string e)
  in
  (r, env.V.fuel)

type call = Apply of string * V.value list | Eval of (string * V.value) list * sexpr

module type EVALUATOR = sig
  val eval : V.env -> (string * V.value) list -> sexpr -> V.value
  val apply : V.env -> string -> V.value list -> V.value
end

(* every call on a fresh environment of [th] with [fuel]; both evaluators
   in one fresh domain, so that neither starts with warm memos *)
let both_agree ?fuel th calls =
  let run (module E : EVALUATOR) =
    List.map
      (fun c ->
        let env = V.make ?fuel th in
        match c with
        | Apply (f, args) -> observe env (fun () -> E.apply env f args)
        | Eval (bs, e) -> observe env (fun () -> E.eval env bs e))
      calls
  in
  let show = function Ok v, fuel -> Printf.sprintf "%s, fuel %d" (V.to_string v) fuel
    | Error m, fuel -> Printf.sprintf "%s, fuel %d" m fuel in
  Domain.join
    (Domain.spawn (fun () ->
         let compiled = run (module V) and reference = run (module Seval_ref) in
         List.iter2
           (fun (c, r) call ->
             if c <> r then
               Printf.eprintf "%s: %s, reference %s\n"
                 (match call with Apply (f, _) -> "apply " ^ f | Eval _ -> "eval")
                 (show c) (show r))
           (List.combine compiled reference) calls;
         compiled = reference))

let names = [ "x"; "y"; "z" ]

(* "f" takes one argument, "g" two, "t" none; "u" is never defined *)
let arity = function "f" -> 1 | "g" -> 2 | _ -> 0

let gen_sexpr =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (3, map (fun n -> Sint_lit n) (oneofl [ -1; 0; 1; 2; 3; 7; 255; 256; 300 ]));
        (1, map (fun b -> Sbool_lit b) bool);
        (8, map (fun x -> Svar x) (frequency [ (4, return "x"); (2, return "y"); (1, oneofl [ "z"; "t"; "f" ]) ])) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        let subs n = list_repeat n sub in
        frequency
          [ (2, leaf);
            (2, map3 (fun c a b -> Sif (c, a, b)) sub sub sub);
            (3, map3 (fun x a b -> Slet (x, a, b)) (oneofl names) sub sub);
            ( 4,
              map2
                (fun p args -> Sprim (p, args))
                (oneofl
                   [ Padd; Psub; Pmul; Pdiv; Pmod; Pneg; Peq; Pne; Plt; Ple; Pgt; Pge;
                     Pand; Por; Pnot; Pband; Pbor; Pbxor; Pshl; Pshr ])
                (frequency [ (1, subs 1); (6, subs 2); (1, oneofl [ 0; 3 ] >>= subs) ]) );
            ( 4,
              oneofl [ "f"; "g" ] >>= fun f ->
              map (fun args -> Sapp (f, args)) (subs (arity f)) );
            (1, map2 (fun f args -> Sapp (f, args)) (oneofl [ "f"; "g"; "t"; "u" ]) (int_bound 2 >>= subs));
            (1, map2 (fun lo es -> Sarray_lit (lo, es)) (oneofl [ 0; 1 ]) (int_bound 3 >>= subs));
            (2, map2 (fun a i -> Sindex (a, i)) sub sub);
            (1, map3 (fun a i v -> Supdate (a, i, v)) sub sub sub);
            (1, map (fun es -> Stuple_lit es) (int_bound 3 >>= subs));
            (1, map2 (fun k e -> Sproj (k, e)) (int_bound 2) sub);
            ( 1,
              map3
                (fun (lo, hi) x body -> Stabulate (lo, hi, x, body))
                (pair (oneofl [ 0; 1 ]) (oneofl [ -1; 0; 1; 3 ]))
                (oneofl names) sub );
            ( 2,
              (* mostly literal bounds, so that the body runs *)
              let bound = frequency [ (4, map (fun n -> Sint_lit n) (oneofl [ -1; 0; 1; 3 ])); (1, sub) ] in
              map3
                (fun (v, acc) (lo, hi) (init, body) ->
                  Sfold { f_var = v; f_lo = lo; f_hi = hi; f_acc = acc; f_init = init; f_body = body })
                (* an index and an accumulator of one name: the index wins *)
                (frequency
                   [ (1, map (fun x -> (x, x)) (oneofl names)); (2, pair (oneofl names) (oneofl names)) ])
                (pair bound bound) (pair sub sub) ) ])

(* parameter types: modular ones take the dense-table path when in
   range, the others the keyed memo or none *)
let gen_typ =
  QCheck.Gen.oneofl [ Sint; Sbool; Snamed "byte"; Snamed "nib"; Smod 4; Snamed "missing" ]

(* "f", "g" and sometimes "t", over parameters named mostly "x" and "y"
   (shadowed by [let]s, folds and tabulations of the same names), and
   sometimes a second definition of "f" or "g" of another arity, which
   the first hides *)
let gen_theory =
  let open QCheck.Gen in
  let def name n =
    map2
      (fun params body ->
        { sd_name = name; sd_kind = Dfun; sd_params = params; sd_ret = Sint; sd_body = body })
      (map2 List.combine
         (frequency [ (6, return (List.filteri (fun i _ -> i < n) [ "x"; "y" ])); (1, list_repeat n (oneofl names)) ])
         (list_repeat n gen_typ))
      (int_range 1 4 >>= gen_sexpr)
  in
  let table =
    { sd_name = "t"; sd_kind = Dtable; sd_params = []; sd_ret = Sint;
      sd_body = Sarray_lit (0, [ Sint_lit 4; Sint_lit 9 ]) }
  in
  map3
    (fun f g (t, extra) ->
      { th_name = "random"; th_types = [ ("byte", Smod 256); ("nib", Smod 16) ];
        th_defs = [ f; g ] @ t @ extra })
    (def "f" 1) (def "g" 2)
    (pair
       (frequency [ (1, return []); (1, return [ table ]); (1, map (fun d -> [ d ]) (def "t" 0)) ])
       (frequency [ (3, return []); (1, map (fun d -> [ d ]) (oneofl [ "f"; "g" ] >>= fun f -> def f 0)) ]))

let gen_value =
  let open QCheck.Gen in
  frequency
    [ (6, map (fun n -> V.Vint n) (oneofl [ 0; 1; 2; 3; 7; 200 ]));
      (1, oneofl
            [ V.Vint 300; V.Vint (-1); V.Vbool true; V.Varr (0, [| V.Vint 1; V.Vint 2 |]);
              V.Vtup [ V.Vint 1; V.Vbool false ] ]) ]

let gen_case =
  let open QCheck.Gen in
  let apply =
    frequency
      [ (8, oneofl [ "f"; "g"; "t" ] >>= fun f ->
            map (fun args -> Apply (f, args)) (list_repeat (arity f) gen_value));
        (1, map2 (fun f args -> Apply (f, args)) (oneofl [ "f"; "g"; "u" ])
              (int_bound 2 >>= fun n -> list_repeat n gen_value)) ]
  in
  let eval =
    map2 (fun bs e -> Eval (bs, e))
      (int_bound 3 >>= fun n -> list_repeat n (pair (oneofl names) gen_value))
      (int_range 0 4 >>= gen_sexpr)
  in
  (* each call twice: the second may be served by the memo *)
  pair gen_theory
    (map (List.concat_map (fun c -> [ c; c ])) (list_size (int_range 1 6) (frequency [ (3, apply); (1, eval) ])))

let prop_eval_identity =
  QCheck.Test.make ~name:"compiled evaluator = tree-walking reference" ~count:1000
    (QCheck.make ~print:(fun (th, _) -> Specl.Spretty.theory_to_string th) gen_case)
    (fun (th, calls) ->
      List.for_all (fun fuel -> both_agree ~fuel th calls) [ 5; 40; 400; 4000 ])

(* both evaluators on the points of every AES lemma, on the FIPS-197
   theory and on the theory extracted from the annotated AES: every
   definition whose parameters are all modular on the lemmas' finite
   domains (every value of the first parameter, 16 spread values of each
   further one: all bytes, the gf_mul byte pairs; tables at no
   arguments), any other on 24 values drawn by type.  The reference's
   one memo holds 65,536 results in all, so a whole byte-pair domain
   would evict its entries and spend fuel the compiled tables do not. *)
let test_eval_identity_aes () =
  let env, prog = Lazy.force Test_aes_pipeline.annotated in
  let extracted = Extract.extract_program env prog in
  let st = Random.State.make [| 7 |] in
  let rng () = Random.State.bits st in
  let small = [| 0; 1; 2; 3; 4; 6; 8; 10; 12; 14 |] in
  let rec value th t =
    match resolve_typ th t with
    | Sbool -> V.Vbool (rng () land 1 = 1)
    | Smod m -> V.Vint (rng () mod m)
    | Sint -> V.Vint small.(rng () mod Array.length small)
    | Sarray (lo, hi, elt) -> V.Varr (lo, Array.init (hi - lo + 1) (fun _ -> value th elt))
    | Stuple ts -> V.Vtup (List.map (value th) ts)
    | Snamed _ -> assert false
  in
  let spread m = List.sort_uniq compare (List.init 16 (fun k -> k * (m - 1) / 15)) in
  let rec grid = function
    | [] -> [ [] ]
    | vs :: rest -> List.concat_map (fun n -> List.map (fun p -> V.Vint n :: p) (grid rest)) vs
  in
  let points th d =
    let ts = List.map (fun (_, t) -> resolve_typ th t) d.sd_params in
    match List.filter_map (function Smod m -> Some m | _ -> None) ts with
    | m :: ms when List.length ms + 1 = List.length ts ->
        grid (List.init m Fun.id :: List.map spread ms)
    | _ when ts = [] -> [ [] ]
    | _ -> List.init 24 (fun _ -> List.map (value th) ts)
  in
  List.iter
    (fun th ->
      let calls =
        List.concat_map
          (fun d ->
            List.map (fun args -> Apply (d.sd_name, args)) (points th d)
            (* a table as the table lemmas read it *)
            @ if d.sd_params = [] then [ Eval ([], Svar d.sd_name) ] else [])
          th.th_defs
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d calls agree" th.th_name (List.length calls))
        true
        (both_agree ~fuel:200_000_000 th calls))
    [ Aes.Aes_spec.theory; extracted ]

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
        Alcotest.test_case "name normalisation" `Quick test_normalise;
        Alcotest.test_case "dense-table memo: a hit spends no fuel" `Quick test_dense_hit;
        Alcotest.test_case "dense-table memo: a raise is not stored" `Quick
          test_dense_raise_not_stored;
        Alcotest.test_case "memo: a spawned domain starts cold" `Quick
          test_spawned_domain_cold ] );
    ( "specl:eval-identity",
      [ QCheck_alcotest.to_alcotest prop_eval_identity;
        Alcotest.test_case "compiled evaluator = reference on the AES lemma points" `Slow
          test_eval_identity_aes ] ) ]
