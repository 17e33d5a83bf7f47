(* Properties of the hash-consed formula core:

   - interning: within one domain, structural equality IS physical
     equality, and [Formula.equal]/[Formula.hash] agree with the
     serialized form;
   - memoized simplification returns exactly what the raw fixpoint
     returns;
   - the cached digest equals a digest recomputed from the canonical
     serialization;
   - a multi-domain stress test: four domains interning the same term
     population concurrently each converge to locally-interned nodes
     that are [Formula.equal] (though not physically equal) across
     domains, with equal digests. *)

module F = Logic.Formula
module S = Logic.Simplify

let gen_formula : F.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> F.num n) (int_range (-8) 300);
        map (fun b -> F.bool_ b) bool;
        map (fun k -> F.var (Printf.sprintf "v%d" k)) (int_range 0 4) ]
  in
  let bin_op =
    oneofl
      F.[ Add; Sub; Mul; Eq; Ne; Lt; Le; Ge; Gt; And; Or; Implies;
          Band 256; Bxor 256; Wrap 256; Select; Store ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (4,
             map2 (fun op (a, b) -> F.app op [ a; b ])
               bin_op
               (pair (self (depth - 1)) (self (depth - 1))));
            (1, map (fun a -> F.app F.Not [ a ]) (self (depth - 1)));
            (1,
             map2 (fun (a, b) c -> F.ite a b c)
               (pair (self (depth - 1)) (self (depth - 1)))
               (self (depth - 1)));
            (1,
             map2
               (fun k body -> F.forall (Printf.sprintf "q%d" k) (F.num 0) (F.num 7) body)
               (int_range 0 2) (self (depth - 1))) ])
    4

let arb_formula = QCheck.make ~print:F.to_string gen_formula
let arb_pair = QCheck.pair arb_formula arb_formula

(* equal <-> structurally equal <-> same interned node (single domain) *)
let prop_equal_iff_physical =
  QCheck.Test.make ~name:"hc: equal iff same node (same domain)" ~count:500
    arb_pair (fun (a, b) ->
      let structural = String.equal (F.serialize a) (F.serialize b) in
      F.equal a b = structural && structural = (a == b))

let prop_equal_implies_hash =
  QCheck.Test.make ~name:"hc: equal terms share cached hash" ~count:500
    arb_pair (fun (a, b) -> (not (F.equal a b)) || F.hash a = F.hash b)

let prop_cached_size =
  QCheck.Test.make ~name:"hc: cached size = structural node count" ~count:300
    arb_formula (fun t ->
      let rec count t =
        match t.F.node with
        | F.Int _ | F.Bool _ | F.Var _ -> 1
        | F.App (_, args) -> List.fold_left (fun a x -> a + count x) 1 args
        | F.Ite (a, b, c) -> 1 + count a + count b + count c
        | F.Forall (_, lo, hi, b) | F.Exists (_, lo, hi, b) ->
            1 + count lo + count hi + count b
      in
      F.node_count t = count t)

let prop_cached_fvs =
  QCheck.Test.make ~name:"hc: cached free variables sorted + deduped" ~count:300
    arb_formula (fun t ->
      let fvs = F.free_vars t in
      List.sort_uniq String.compare fvs = fvs)

(* the cached store flag is exactly "an [App (Store, _)] occurs" *)
let prop_cached_stores =
  QCheck.Test.make ~name:"hc: cached stores = some Store subterm" ~count:500
    arb_formula (fun t ->
      let found = ref false in
      F.iter
        (fun u -> match u.F.node with F.App (F.Store, _) -> found := true | _ -> ())
        t;
      t.F.stores = !found)

let test_stores_survive_localize () =
  let with_store =
    F.forall "k" (F.num 0) (F.num 7)
      (F.eq (F.select (F.store (F.var "a") (F.var "k") (F.num 1)) (F.var "k")) (F.num 1))
  in
  let without = F.eq (F.select (F.var "a") (F.num 3)) (F.num 1) in
  let flags =
    Domain.join
      (Domain.spawn (fun () ->
           let l = F.localize with_store and l' = F.localize without in
           (l != with_store, l.F.stores, l'.F.stores)))
  in
  Alcotest.(check (triple bool bool bool)) "re-interned, flags kept"
    (true, true, false) flags

(* memoized simplify must be indistinguishable from the raw fixpoint *)
let prop_simplify_memo_transparent =
  QCheck.Test.make ~name:"hc: memoized simplify = raw fixpoint" ~count:500
    arb_formula (fun t ->
      let cold = S.simplify_nomemo t in
      let warm1 = S.simplify t in
      let warm2 = S.simplify t in
      warm1 == cold && warm2 == cold)

(* the digest memo must agree with a from-scratch digest of the
   canonical serialization *)
let prop_digest_matches_serialize =
  QCheck.Test.make ~name:"hc: cached digest = digest of serialization" ~count:300
    arb_formula (fun t ->
      let cached = F.digest t in
      let recomputed = Digest.to_hex (Digest.string (F.serialize t)) in
      String.equal cached (F.digest t) && String.equal cached recomputed)

(* subst is a no-op (physically) when the variable is not free *)
let prop_subst_absent_var_noop =
  QCheck.Test.make ~name:"hc: subst on absent var returns same node" ~count:300
    arb_formula (fun t ->
      F.subst "not!a!variable" (F.num 0) t == t)

(* map with the identity preserves sharing *)
let prop_map_id_preserves_node =
  QCheck.Test.make ~name:"hc: map id returns same node" ~count:300 arb_formula
    (fun t -> F.map (fun x -> x) t == t)

(* ------------------------------------------------------------------ *)
(* multi-domain interning stress                                       *)
(* ------------------------------------------------------------------ *)

let test_four_domain_interning () =
  (* Each domain builds the same population from scratch.  Terms from
     different domains are distinct nodes but must agree on equal/hash/
     digest/serialization. *)
  let build () =
    List.init 200 (fun i ->
        let x = F.var (Printf.sprintf "x%d" (i mod 7)) in
        let base = F.app F.Add [ x; F.num (i mod 13) ] in
        let t =
          if i mod 3 = 0 then F.app F.Mul [ base; base ]
          else if i mod 3 = 1 then F.forall "k" (F.num 0) (F.num i) (F.eq base x)
          else F.select (F.store x (F.num i) base) (F.num i)
        in
        S.simplify t)
  in
  let mine = build () in
  let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> build ())) in
  let theirs = Array.map Domain.join domains in
  Array.iter
    (fun other ->
      List.iter2
        (fun a b ->
          assert (F.equal a b);
          assert (F.hash a = F.hash b);
          assert (String.equal (F.serialize a) (F.serialize b));
          assert (String.equal (F.digest a) (F.digest b));
          (* localizing the foreign node re-interns it here *)
          assert (F.localize b == a))
        mine other)
    theirs;
  Alcotest.(check bool) "4-domain interning agreement" true true

let test_interning_dedups () =
  let a = F.app F.Add [ F.var "hc_dedup_x"; F.num 1 ] in
  let b = F.app F.Add [ F.var "hc_dedup_x"; F.num 1 ] in
  Alcotest.(check bool) "rebuilt term is the same node" true (a == b);
  Alcotest.(check bool) "interner population is positive" true
    (F.live_nodes () > 0 && F.interned_nodes () > 0)

let suites =
  [ ( "logic:hashcons",
      [ QCheck_alcotest.to_alcotest prop_equal_iff_physical;
        QCheck_alcotest.to_alcotest prop_equal_implies_hash;
        QCheck_alcotest.to_alcotest prop_cached_size;
        QCheck_alcotest.to_alcotest prop_cached_fvs;
        QCheck_alcotest.to_alcotest prop_cached_stores;
        QCheck_alcotest.to_alcotest prop_simplify_memo_transparent;
        QCheck_alcotest.to_alcotest prop_digest_matches_serialize;
        QCheck_alcotest.to_alcotest prop_subst_absent_var_noop;
        QCheck_alcotest.to_alcotest prop_map_id_preserves_node;
        Alcotest.test_case "interning dedups" `Quick test_interning_dedups;
        Alcotest.test_case "store flag survives localize" `Quick
          test_stores_survive_localize;
        Alcotest.test_case "4-domain interning stress" `Quick
          test_four_domain_interning ] ) ]
