(* The MiniSpark declaration-sharing layer (Share) and the sharing-
   preserving rewrite combinators it relies on:

   - interning two structurally equal, physically distinct programs yields
     pointer-equal declarations, with equal memoized digests;
   - the digest is sharing-independent (Marshal.No_sharing): an interned
     program and a freshly parsed one agree;
   - map_expr / map_stmts / map_own_exprs return the original node / list
     when the rewriter changes nothing, and preserve untouched subtrees
     physically when it does;
   - a 4-domain stress test mirroring test_hashcons: per-domain interning
     states converge to structurally equal programs with equal digests. *)

open Minispark
module Share = Minispark.Share

let src =
  {|program p is
     type byte is mod 256;
     type tab is array (0 .. 3) of byte;
     lut : constant tab := (1, 2, 4, 8);
     g : byte := 0;
     function f (x : in byte) return byte
     is
       t : byte;
     begin
       t := x xor 17;
       if t >= 128 then
         t := (t * 2) xor 27;
       else
         t := t * 2;
       end if;
       return t xor lut (3);
     end f;
     procedure step (a : in byte; r : out byte)
     is
     begin
       r := f (a);
       for i in 0 .. 3 loop
         r := r xor lut (i);
       end loop;
     end step;
    end p;|}

let parse () = Parser.of_string src

let test_intern_canonical () =
  let p1 = Share.intern_program (parse ()) in
  let p2 = Share.intern_program (parse ()) in
  List.iter2
    (fun d1 d2 ->
      Alcotest.(check bool) "interned decls are pointer-equal" true (d1 == d2))
    p1.Ast.prog_decls p2.Ast.prog_decls;
  (* re-interning a canonical program is the identity *)
  Alcotest.(check bool) "intern is idempotent (physically)" true
    (Share.intern_program p1 == p1)

let test_digest_sharing_independent () =
  let shared = Share.intern_program (parse ()) in
  let unshared = parse () in
  Alcotest.(check string) "digest ignores pointer sharing"
    (Share.program_digest shared)
    (Share.program_digest unshared);
  let other =
    Parser.of_string "program q is type b is mod 2; x : b := 1; end q;"
  in
  Alcotest.(check bool) "different programs, different digests" false
    (String.equal (Share.program_digest shared) (Share.program_digest other))

let test_decl_refs () =
  let p = parse () in
  let f = List.find (fun d -> match d with Ast.Dsub s -> s.Ast.sub_name = "f" | _ -> false) p.Ast.prog_decls in
  let refs = Share.decl_refs f in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "f refs %s" n) true (List.mem n refs))
    [ "byte"; "lut" ];
  Alcotest.(check bool) "refs are sorted+deduped" true
    (List.sort_uniq compare refs = refs)

(* combinators: identity rewriters return the original nodes *)
let test_map_identity_preserves_node () =
  let p = parse () in
  let f = Ast.find_sub_exn p "f" in
  let body = f.Ast.sub_body in
  let body' = Ast.map_stmts (fun s -> [ Ast.map_own_exprs (Ast.map_expr (fun e -> e)) s ]) body in
  Alcotest.(check bool) "identity rewrite returns the same list" true
    (body' == body);
  let e = Parser.expr_of_string "f (x) + lut (i) * 3" in
  Alcotest.(check bool) "map_expr id returns the same node" true
    (Ast.map_expr (fun e -> e) e == e)

(* combinators: a targeted rewrite leaves untouched subtrees physically intact *)
let test_rewrite_preserves_untouched () =
  let p = parse () in
  let rw =
    Ast.map_expr (function Ast.Int_lit 17 -> Ast.Int_lit 18 | e -> e)
  in
  let touch d =
    match d with
    | Ast.Dsub s ->
        let body' =
          Ast.map_stmts (fun st -> [ Ast.map_own_exprs rw st ]) s.Ast.sub_body
        in
        if body' == s.Ast.sub_body then d else Ast.Dsub { s with Ast.sub_body = body' }
    | d -> d
  in
  let decls' = Ast.map_sharing touch p.Ast.prog_decls in
  Alcotest.(check bool) "decl list rebuilt (one decl changed)" true
    (decls' != p.Ast.prog_decls);
  List.iter2
    (fun d d' ->
      match d with
      | Ast.Dsub s when s.Ast.sub_name = "f" ->
          Alcotest.(check bool) "touched decl is new" true (d' != d);
          (* within the touched body, statements after the edited one are
             physically preserved *)
          let b = s.Ast.sub_body in
          let b' = (match d' with Ast.Dsub s' -> s'.Ast.sub_body | _ -> assert false) in
          Alcotest.(check bool) "untouched tail statements shared" true
            (List.nth b' 2 == List.nth b 2)
      | _ -> Alcotest.(check bool) "untouched decls shared" true (d' == d))
    p.Ast.prog_decls decls'

let test_subst_preserves_untouched () =
  let stmts = Parser.stmts_of_string "a := b + 1; c := d;" in
  let stmts' = Ast.subst_stmts [ ("b", Ast.Int_lit 9) ] stmts in
  Alcotest.(check bool) "substituted list is new" true (stmts' != stmts);
  Alcotest.(check bool) "untouched statement is shared" true
    (List.nth stmts' 1 == List.nth stmts 1);
  let noop = Ast.subst_stmts [ ("zz", Ast.Int_lit 0) ] stmts in
  Alcotest.(check bool) "no-op substitution returns the same list" true
    (noop == stmts)

(* four domains intern the same source concurrently; interning state is
   per-domain, so the canonical nodes differ physically across domains but
   agree structurally — digests included *)
let test_four_domain_interning () =
  let build () =
    let p = Share.intern_program (parse ()) in
    (p, Share.program_digest p, List.map Share.decl_digest p.Ast.prog_decls)
  in
  let mine, my_digest, my_decl_digests = build () in
  let domains = Array.init 4 (fun _ -> Domain.spawn build) in
  let theirs = Array.map Domain.join domains in
  Array.iter
    (fun (p, digest, decl_digests) ->
      Alcotest.(check string) "program digests agree across domains" my_digest
        digest;
      List.iter2
        (fun a b -> Alcotest.(check string) "decl digests agree" a b)
        my_decl_digests decl_digests;
      Alcotest.(check bool) "structurally equal" true (p = mine))
    theirs

let suites =
  [ ( "minispark:share",
      [ Alcotest.test_case "interning is canonical" `Quick test_intern_canonical;
        Alcotest.test_case "digest is sharing-independent" `Quick
          test_digest_sharing_independent;
        Alcotest.test_case "decl_refs is conservative" `Quick test_decl_refs;
        Alcotest.test_case "identity rewrites preserve nodes" `Quick
          test_map_identity_preserves_node;
        Alcotest.test_case "rewrites preserve untouched subtrees" `Quick
          test_rewrite_preserves_untouched;
        Alcotest.test_case "subst preserves untouched statements" `Quick
          test_subst_preserves_untouched;
        Alcotest.test_case "4-domain interning stress" `Quick
          test_four_domain_interning ] ) ]
