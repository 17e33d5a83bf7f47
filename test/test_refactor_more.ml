(* Second batch of refactoring-library tests: the transformations and
   rejection paths not covered by the first suite (conditional merging,
   local renaming, unused-declaration removal, type renaming, table
   reversal with helper constants, history bookkeeping). *)

open Minispark

let check_src src = Typecheck.check (Parser.of_string src)

(* apply one step certified, with [entries] as the entry points; it must
   come out [Certified] *)
let apply_certified h tr ~entries =
  let step =
    Refactor.History.apply ~certify:(Refactor.Certify.default_config ~entries ()) h tr
  in
  match step.Refactor.History.st_certificate with
  | Some (Refactor.Certify.Certified _) -> ()
  | c ->
      Alcotest.failf "%s: %s" step.Refactor.History.st_name
        (Option.fold ~none:"no certificate" ~some:Refactor.Certify.describe c)

let apply1 src tr ~entries =
  let env, prog = check_src src in
  let h = Refactor.History.create env prog in
  apply_certified h tr ~entries;
  Refactor.History.current h

let expect_reject f =
  match f () with
  | exception Refactor.Transform.Not_applicable _ -> ()
  | _ -> Alcotest.fail "expected Not_applicable"

(* ---------------- merge_adjacent ---------------- *)

let merge_src =
  {|
program m is

  type nr_range is range 10 .. 14;

  procedure steps (nr : in nr_range; a : out integer; b : out integer)
  is
  begin
    a := 0;
    b := 0;
    if nr > 10 then
      a := 1;
    end if;
    if nr > 10 then
      b := 1;
    end if;
  end steps;

end m;
|}

let test_merge_adjacent () =
  let _, prog =
    apply1 merge_src
      (Refactor.Conditional_motion.merge_adjacent ~proc:"steps" ~at:2 ~count:2)
      ~entries:[ "steps" ]
  in
  let sub = Ast.find_sub_exn prog "steps" in
  Alcotest.(check int) "three statements" 3 (List.length sub.Ast.sub_body);
  match List.nth sub.Ast.sub_body 2 with
  | Ast.If ([ (_, body) ], []) -> Alcotest.(check int) "merged branch" 2 (List.length body)
  | _ -> Alcotest.fail "not merged"

let test_merge_rejects_different_guards () =
  let src = Str_replace.replace merge_src ~find:"if nr > 10 then\n      b := 1;" ~by:"if nr > 12 then\n      b := 1;" in
  expect_reject (fun () ->
      apply1 src
        (Refactor.Conditional_motion.merge_adjacent ~proc:"steps" ~at:2 ~count:2)
        ~entries:[])

let test_merge_rejects_guard_interference () =
  let src =
    {|
program m2 is
  procedure steps (x : in out integer; a : out integer)
  is
  begin
    a := 0;
    if x > 0 then
      x := 0;
    end if;
    if x > 0 then
      a := 1;
    end if;
  end steps;
end m2;|}
  in
  expect_reject (fun () ->
      apply1 src
        (Refactor.Conditional_motion.merge_adjacent ~proc:"steps" ~at:1 ~count:2)
        ~entries:[])

(* ---------------- renames and removals ---------------- *)

let test_rename_local () =
  let src =
    {|
program r is
  type byte is mod 256;
  procedure f (x : in byte; out1 : out byte)
  --# post out1 = x + 1;
  is
    tmp : byte;
  begin
    tmp := x + 1;
    out1 := tmp;
  end f;
end r;|}
  in
  let _, prog =
    apply1 src
      (Refactor.Storage_adjust.rename_local ~proc:"f" ~from_name:"tmp" ~to_name:"increment")
      ~entries:[ "f" ]
  in
  let sub = Ast.find_sub_exn prog "f" in
  Alcotest.(check bool) "local renamed" true
    (List.exists (fun (v : Ast.var_decl) -> v.Ast.v_name = "increment") sub.Ast.sub_locals)

let test_rename_local_rejects_clash () =
  let src =
    {|
program r2 is
  procedure f (x : in integer; r : out integer)
  is
    a : integer;
    b : integer;
  begin
    a := x;
    b := a;
    r := b;
  end f;
end r2;|}
  in
  expect_reject (fun () ->
      apply1 src
        (Refactor.Storage_adjust.rename_local ~proc:"f" ~from_name:"a" ~to_name:"b")
        ~entries:[])

let test_remove_unused_decl_type () =
  let src =
    {|
program u is
  type byte is mod 256;
  type ghost is array (0 .. 3) of byte;
  procedure f (r : out byte) is
  begin
    r := 1;
  end f;
end u;|}
  in
  let _, prog =
    apply1 src (Refactor.Storage_adjust.remove_unused_decl ~name:"ghost") ~entries:[ "f" ]
  in
  Alcotest.(check bool) "ghost removed" true
    (not (List.mem_assoc "ghost" (Ast.type_decls prog)))

let test_remove_used_decl_rejected () =
  let src =
    {|
program u2 is
  type byte is mod 256;
  procedure f (r : out byte) is
  begin
    r := 1;
  end f;
end u2;|}
  in
  expect_reject (fun () ->
      apply1 src (Refactor.Storage_adjust.remove_unused_decl ~name:"byte") ~entries:[])

let test_rename_type () =
  let src =
    {|
program t is
  type oldname is mod 256;
  procedure f (x : in oldname; r : out oldname) is
  begin
    r := x;
  end f;
end t;|}
  in
  let _, prog =
    apply1 src
      (Refactor.Storage_adjust.rename_type ~from_name:"oldname" ~to_name:"byte")
      ~entries:[ "f" ]
  in
  Alcotest.(check bool) "type renamed" true (List.mem_assoc "byte" (Ast.type_decls prog));
  let sub = Ast.find_sub_exn prog "f" in
  Alcotest.(check bool) "parameter retyped" true
    (List.for_all
       (fun (p : Ast.param) -> p.Ast.par_typ = Ast.Tnamed "byte")
       sub.Ast.sub_params)

(* ---------------- move_out rejection ---------------- *)

let test_move_out_rejects_no_common_prefix () =
  let src =
    {|
program mo is
  procedure f (x : in integer; r : out integer) is
  begin
    if x > 0 then
      r := 1;
    else
      r := 2;
    end if;
  end f;
end mo;|}
  in
  expect_reject (fun () ->
      apply1 src (Refactor.Conditional_motion.move_out ~proc:"f" ~at:0) ~entries:[])

(* ---------------- table reversal with shared helpers ---------------- *)

let test_reverse_two_tables_shared_helpers () =
  let src =
    {|
program tabs is

  type byte is mod 256;
  type tab is array (0 .. 7) of byte;

  doubles : constant tab := (0, 2, 4, 6, 8, 10, 12, 14);
  quads : constant tab := (0, 4, 8, 12, 16, 20, 24, 28);

  procedure use (x : in integer; r : out byte)
  --# pre x >= 0 and x <= 7;
  is
  begin
    r := doubles (x) xor quads (x);
  end use;

end tabs;
|}
  in
  let helpers =
    [ Ast.Dsub
        { Ast.sub_name = "scale";
          sub_params =
            [ { Ast.par_name = "k"; par_mode = Ast.Mode_in; par_typ = Ast.Tint None };
              { Ast.par_name = "i"; par_mode = Ast.Mode_in; par_typ = Ast.Tint None } ];
          sub_return = Some (Ast.Tnamed "byte");
          sub_pre = None; sub_post = None; sub_locals = [];
          sub_body = [ Ast.Return (Some (Parser.expr_of_string "k * i")) ] } ]
  in
  let env, prog = check_src src in
  let h = Refactor.History.create env prog in
  apply_certified h ~entries:[ "use" ]
    (Refactor.Table_reverse.reverse ~table:"doubles" ~index_var:"i"
       ~replacement:(Parser.expr_of_string "scale (2, i)") ~helpers ());
  (* second reversal reuses the already-installed helper *)
  apply_certified h ~entries:[ "use" ]
    (Refactor.Table_reverse.reverse ~table:"quads" ~index_var:"i"
       ~replacement:(Parser.expr_of_string "scale (4, i)") ~helpers ());
  let _, prog = Refactor.History.current h in
  Alcotest.(check int) "no tables left" 0 (List.length (Ast.constants prog));
  Alcotest.(check int) "two steps recorded" 2 (Refactor.History.step_count h)

(* ---------------- history bookkeeping ---------------- *)

let test_history_category_counts () =
  let env, prog = check_src merge_src in
  let h = Refactor.History.create env prog in
  apply_certified h ~entries:[ "steps" ]
    (Refactor.Conditional_motion.merge_adjacent ~proc:"steps" ~at:2 ~count:2);
  match Refactor.History.category_counts h with
  | [ (Refactor.Transform.Move_conditional, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected category tally"

let suites =
  [ ( "refactor:more",
      [ Alcotest.test_case "merge adjacent conditionals" `Quick test_merge_adjacent;
        Alcotest.test_case "merge rejects different guards" `Quick
          test_merge_rejects_different_guards;
        Alcotest.test_case "merge rejects guard interference" `Quick
          test_merge_rejects_guard_interference;
        Alcotest.test_case "rename local (with annotations)" `Quick test_rename_local;
        Alcotest.test_case "rename rejects name clash" `Quick test_rename_local_rejects_clash;
        Alcotest.test_case "remove unused type" `Quick test_remove_unused_decl_type;
        Alcotest.test_case "removal of used declaration rejected" `Quick
          test_remove_used_decl_rejected;
        Alcotest.test_case "rename type program-wide" `Quick test_rename_type;
        Alcotest.test_case "move_out rejects disjoint branches" `Quick
          test_move_out_rejects_no_common_prefix;
        Alcotest.test_case "two table reversals share helpers" `Quick
          test_reverse_two_tables_shared_helpers;
        Alcotest.test_case "history category counts" `Quick test_history_category_counts ] ) ]
