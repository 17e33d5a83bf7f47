(* Change-impact analysis tests (§15).

   Three layers:
   - unit tests pinning down the dependency graph and semantic diff on a
     small program exercising every edge kind (call, spec, global) and
     the declaration closure;
   - a QCheck property: under a random single-subprogram edit, [Semdiff]
     flags exactly the edited subprogram, with the right classification;
   - a soundness test: incremental re-verification (carry on) reaches
     per-VC verdicts identical to a full re-prove of the same edited
     program (carry off), for a benign edit and for seeded defects. *)

open Minispark
module DG = Analysis.Depgraph
module SD = Analysis.Semdiff
module IM = Analysis.Impact
module O = Echo.Orchestrator
module CK = Echo.Checkpoint
module IP = Echo.Implementation_proof

(* One program touching every dependency kind: [quad] calls [double]
   from body and spec; [use_all] calls [quad] and [stash]; [stash]
   writes global [g]; [reload] reads [g] (global dataflow edge to the
   writer) and the constant [bias], whose definition references [base]. *)
let deps_src =
  {|
program deps is

  type byte is mod 256;
  base : constant byte := 7;
  bias : constant byte := base + 1;
  g : byte := 0;

  function double (x : in byte) return byte
  --# post result = x + x;
  is
  begin
    return x + x;
  end double;

  function quad (x : in byte) return byte
  --# post result = double (double (x));
  is
  begin
    return double (double (x));
  end quad;

  procedure stash (v : in byte; ok : out byte)
  --# post g = v and ok = v;
  is
    t : byte;
  begin
    t := v;
    g := t;
    ok := t;
  end stash;

  procedure reload (v : out byte)
  --# post v = g + bias;
  is
  begin
    v := g + bias;
  end reload;

  procedure use_all (a : in byte; r : out byte)
  --# post r = quad (a);
  is
    k : byte;
  begin
    r := quad (a);
    stash (r, k);
  end use_all;

end deps;
|}

let checked = lazy (Typecheck.check (Parser.of_string deps_src))
let deps_prog () = snd (Lazy.force checked)

let idents = Alcotest.(check (list string))

(* ---------------- dependency graph ---------------- *)

let test_depgraph_edges () =
  let g = DG.build (deps_prog ()) in
  idents "nodes in declaration order"
    [ "double"; "quad"; "stash"; "reload"; "use_all" ] (DG.subs g);
  (match DG.callees g "quad" with
  | [ ("double", DG.Ecall) ] -> ()
  | _ -> Alcotest.fail "quad should have a single call edge to double");
  (match DG.callees g "use_all" with
  | [ ("quad", DG.Ecall); ("stash", DG.Ecall) ] -> ()
  | _ -> Alcotest.fail "use_all should call quad and stash");
  (match DG.callees g "reload" with
  | [ ("stash", DG.Eglobal "g") ] -> ()
  | _ -> Alcotest.fail "reload should reach stash through global g");
  idents "direct callers of double" [ "quad" ] (DG.direct_callers g "double");
  (* reload depends on stash only through [g]: not a direct caller *)
  idents "direct callers of stash" [ "use_all" ] (DG.direct_callers g "stash");
  idents "reload reads g" [ "g" ] (DG.globals_read g "reload");
  idents "stash writes g" [ "g" ] (DG.globals_written g "stash")

let test_depgraph_closures () =
  let g = DG.build (deps_prog ()) in
  idents "eval frontier of use_all" [ "double"; "quad"; "stash" ]
    (DG.eval_deps g "use_all");
  idents "eval frontier of quad" [ "double" ] (DG.eval_deps g "quad");
  idents "dependents of double" [ "double"; "quad"; "use_all" ]
    (DG.dependents g [ "double" ]);
  (* the global edge pulls the reader in: a change to the writer can
     invalidate reload's view of g *)
  idents "dependents of stash" [ "reload"; "stash"; "use_all" ]
    (DG.dependents g [ "stash" ]);
  (* bias's definition references base, so reload's frontier has both *)
  idents "decl refs of reload" [ "base"; "bias"; "byte"; "g" ]
    (DG.decl_refs g "reload");
  idents "decl refs of use_all" [ "byte" ] (DG.decl_refs g "use_all")

(* ---------------- semantic diff ---------------- *)

(* both sides as outlines, as a served job and [impact] diff them *)
let diff p q = SD.diff ~old_o:(SD.outline p) ~new_o:(SD.outline q)
let compute p q = IM.compute ~old_o:(SD.outline p) ~new_o:(SD.outline q) q

let prepend_assert name prog =
  Ast.update_sub prog name (fun sp ->
      { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body })

let weaken_post name prog =
  Ast.update_sub prog name (fun sp ->
      let post =
        match sp.Ast.sub_post with
        | Some p -> Ast.Binop (Ast.And, p, Ast.Bool_lit true)
        | None -> Ast.Bool_lit true
      in
      { sp with Ast.sub_post = Some post })

let change_of d name =
  try List.assoc name d.SD.sd_subs
  with Not_found -> Alcotest.failf "%s missing from the diff" name

let test_semdiff_classification () =
  let p = deps_prog () in
  Alcotest.(check bool) "self diff is empty" true
    (SD.is_empty (diff p p));
  let d = diff p (prepend_assert "quad" p) in
  idents "only quad changed" [ "quad" ] (SD.changed_subs d);
  (match change_of d "quad" with
  | SD.Body_changed -> ()
  | c -> Alcotest.failf "body edit classified %s" (SD.change_name c));
  idents "no spec escalation for a body edit" [] (SD.sig_changed_subs d);
  let d = diff p (weaken_post "double" p) in
  (match change_of d "double" with
  | SD.Sig_or_spec_changed -> ()
  | c -> Alcotest.failf "spec edit classified %s" (SD.change_name c));
  idents "spec edit escalates" [ "double" ] (SD.sig_changed_subs d)

let test_semdiff_added_removed () =
  let p = deps_prog () in
  let without_reload =
    { p with
      Ast.prog_decls =
        List.filter
          (function Ast.Dsub s -> s.Ast.sub_name <> "reload" | _ -> true)
          p.Ast.prog_decls }
  in
  let d = diff p without_reload in
  (match change_of d "reload" with
  | SD.Removed -> ()
  | c -> Alcotest.failf "removal classified %s" (SD.change_name c));
  (* nothing calls reload, so deleting it invalidates no surviving VC *)
  let plan = compute p without_reload in
  idents "removal of a leaf re-proves nothing" [] (IM.impacted_subs plan);
  let plan = compute without_reload p in
  (match List.assoc_opt "reload" plan.IM.pl_impacted with
  | Some (IM.R_changed SD.Added :: _) -> ()
  | _ -> Alcotest.fail "re-adding reload should re-prove it")

let test_decl_change_impact () =
  (* flipping the constant base reaches only reload, through bias *)
  let p = deps_prog () in
  let _, p' =
    Typecheck.check
      (Parser.of_string
         (Str_replace.replace deps_src ~find:"base : constant byte := 7"
            ~by:"base : constant byte := 8"))
  in
  let d = diff p p' in
  idents "no subprogram text changed" [] (SD.changed_subs d);
  idents "the constant registers" [ "base" ] d.SD.sd_decls;
  let plan = compute p p' in
  (match plan.IM.pl_impacted with
  | [ ("reload", reasons) ]
    when List.exists (function IM.R_decl "base" -> true | _ -> false) reasons ->
      ()
  | _ ->
      Alcotest.failf "expected exactly reload impacted via base, got %s"
        (String.concat ", " (IM.impacted_subs plan)));
  idents "everything else carries"
    [ "double"; "quad"; "stash"; "use_all" ] plan.IM.pl_carried

(* ---------------- QCheck: single-edit precision ---------------- *)

let sub_names = [ "double"; "quad"; "stash"; "reload"; "use_all" ]

let edit_kinds =
  [ ("prepend-assert", prepend_assert, SD.Body_changed);
    ( "append-assert",
      (fun name prog ->
        Ast.update_sub prog name (fun sp ->
            { sp with
              Ast.sub_body =
                sp.Ast.sub_body @ [ Ast.Assert (Ast.Bool_lit true) ] })),
      SD.Body_changed );
    ("weaken-post", weaken_post, SD.Sig_or_spec_changed) ]

let test_single_edit_precision =
  let gen =
    QCheck.make
      ~print:(fun (s, k) ->
        let kind, _, _ = List.nth edit_kinds k in
        Printf.sprintf "%s on %s" kind (List.nth sub_names s))
      QCheck.Gen.(pair (int_range 0 (List.length sub_names - 1))
                    (int_range 0 (List.length edit_kinds - 1)))
  in
  QCheck.Test.make ~name:"semdiff flags exactly the edited subprogram"
    ~count:60 gen (fun (s, k) ->
      let name = List.nth sub_names s in
      let _, edit, expected = List.nth edit_kinds k in
      let p = deps_prog () in
      let d = diff p (edit name p) in
      SD.changed_subs d = [ name ]
      && change_of d name = expected
      && d.SD.sd_decls = []
      && IM.is_impacted (compute p (edit name p)) name)

(* ---------------- outline diff = AST diff ---------------- *)

(* [Semdiff_ref] is the AST-based differ the outline diff replaced: over
   the outlines of two programs, [SD.diff] must return exactly what the
   reference returns over their trees *)
let check_same_diff what old_p new_p =
  let expect = Semdiff_ref.diff ~old_p ~new_p in
  let got = SD.diff ~old_o:(SD.outline old_p) ~new_o:(SD.outline new_p) in
  if got <> expect then
    Alcotest.failf "%s: outline diff %s, AST diff %s" what (SD.to_json got)
      (SD.to_json expect)

(* the normal form a served job checks, or [None] when it does not check *)
let checked_opt p = match Typecheck.check p with _, p -> Some p | exception _ -> None

let test_identity_aes_edits () =
  let prog = Lazy.force Test_vcgen.aes_annotated in
  check_same_diff "AES against itself" prog prog;
  let compared =
    List.filter_map
      (fun (sp : Ast.subprogram) ->
        let name = sp.Ast.sub_name in
        Option.map
          (fun edited -> check_same_diff ("AES, assert edit of " ^ name) prog edited)
          (checked_opt (Parser.of_string (Test_vcgen.assert_edit prog name))))
      (Ast.subprograms prog)
  in
  Alcotest.(check int) "every subprogram's assert edit compared"
    (List.length (Ast.subprograms prog)) (List.length compared)

(* the paper's seeded defects on the optimized original, and on the
   refactored, annotated program with the surfaces the serve workload
   seeds *)
let test_identity_seeds () =
  let refactored = Lazy.force Test_vcgen.aes_annotated in
  let surfaces =
    [ ( "optimized AES",
        snd (Aes.Aes_impl.checked ()),
        Defects.Seed.seed_all ?subs:None ?ref_pairs:None );
      ( "refactored AES",
        refactored,
        Defects.Seed.seed_all
          ~subs:[ "encrypt"; "decrypt"; "key_expansion"; "sub_bytes"; "mix_columns";
                  "add_round_key" ]
          ~ref_pairs:[ ("sbox", "inv_sbox"); ("src", "dst"); ("k0", "k1"); ("s", "t") ] ) ]
  in
  List.iter
    (fun (surface, prog, seed) ->
      let compared =
        List.concat_map
          (fun s ->
            List.filter_map
              (fun (d : Defects.Seed.defect) ->
                match d.Defects.Seed.d_apply prog with
                | exception _ -> None
                | mutated ->
                    Option.map
                      (fun p' ->
                        check_same_diff
                          (Printf.sprintf "%s, seed %d, defect %d" surface s d.Defects.Seed.d_id)
                          prog p')
                      (checked_opt mutated))
              (seed ?seed:(Some s) prog))
          [ 1; 2; 3 ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d seeded defects compared" surface (List.length compared))
        true
        (List.length compared >= 30))
    surfaces

let example_programs () =
  List.map
    (fun f ->
      let src = Fixture.read (Fixture.example f) in
      (f, snd (Typecheck.check (Parser.of_string src))))
    [ "checksum.mspark"; "sbox_lookup.mspark"; "stream.mspark" ]

(* every ordered pair, each program against itself and its assert edits *)
let test_identity_examples () =
  let progs = example_programs () @ [ ("deps", deps_prog ()) ] in
  List.iter
    (fun (a, p) ->
      List.iter (fun (b, q) -> check_same_diff (a ^ " -> " ^ b) p q) progs;
      List.iter
        (fun (sp : Ast.subprogram) ->
          let name = sp.Ast.sub_name in
          check_same_diff (a ^ ", assert edit of " ^ name) p (prepend_assert name p);
          check_same_diff (a ^ ", weakened post of " ^ name) p (weaken_post name p))
        (Ast.subprograms p))
    progs

let prop_identity_bodies =
  QCheck.Test.make ~name:"outline diff = AST diff on random body edits" ~count:200
    QCheck.(pair Test_properties.arbitrary_program Test_properties.arbitrary_program)
    (fun (b1, b2) ->
      let p1 = Test_properties.program_of_body b1 and p2 = Test_properties.program_of_body b2 in
      check_same_diff "raw bodies" p1 p2;
      (match (checked_opt p1, checked_opt p2) with
      | Some c1, Some c2 -> check_same_diff "checked bodies" c1 c2
      | _ -> ());
      true)

(* a signature edit, a constant edit, an added and a removed subprogram,
   and duplicate names (the first declaration of a name is the one
   compared, for subprograms and for program-level names alike) *)
let test_identity_hand_edits () =
  let p = deps_prog () in
  let set_mode name prog =
    Ast.update_sub prog name (fun sp ->
        { sp with
          Ast.sub_params =
            List.map (fun (q : Ast.param) -> { q with Ast.par_mode = Ast.Mode_in_out })
              sp.Ast.sub_params })
  in
  check_same_diff "signature edit" p (set_mode "double" p);
  let _, p' =
    Typecheck.check
      (Parser.of_string
         (Str_replace.replace deps_src ~find:"base : constant byte := 7"
            ~by:"base : constant byte := 8"))
  in
  check_same_diff "constant edit" p p';
  let without name (prog : Ast.program) =
    { prog with
      Ast.prog_decls =
        List.filter (fun d -> Ast.decl_name d <> name) prog.Ast.prog_decls }
  in
  check_same_diff "removed subprogram" p (without "reload" p);
  check_same_diff "added subprogram" (without "reload" p) p;
  check_same_diff "removed constant" p (without "bias" p);
  check_same_diff "added global" (without "g" p) p;
  let find name = List.find (fun d -> Ast.decl_name d = name) p.Ast.prog_decls in
  let dup extra (prog : Ast.program) =
    { prog with Ast.prog_decls = prog.Ast.prog_decls @ extra }
  in
  let edited_double =
    match find "double" with
    | Ast.Dsub sp ->
        Ast.Dsub { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body }
    | d -> d
  in
  let shadow_type = Ast.Dtype ("bias", Ast.Tmod 16) in
  let shadow_var =
    Ast.Dvar { Ast.v_name = "base"; v_typ = Ast.Tnamed "byte"; v_init = None }
  in
  let cases =
    [ ("duplicate subprogram, later copy edited",
       dup [ find "double" ] p, dup [ edited_double ] p);
      ("duplicate subprogram, first copy edited",
       dup [ edited_double ] p, dup [ find "double" ] p);
      ("duplicate subprogram on one side", p, dup [ edited_double ] p);
      ("type shadowing a constant", p, dup [ shadow_type ] p);
      ("type shadowing a constant, removed", dup [ shadow_type ] p, p);
      ("global after a constant of its name", p, dup [ shadow_var ] p);
      ("duplicate constant", dup [ find "bias" ] p, dup [ find "base" ] p) ]
  in
  List.iter
    (fun (what, a, b) ->
      check_same_diff what a b;
      check_same_diff (what ^ ", reversed") b a)
    cases

(* ---------------- incremental vs full soundness ---------------- *)

let temp_run_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "echo-impact-%s-%d" tag (Unix.getpid ()))

let deps_case () : Echo.Pipeline.case_study =
  let env, prog = Lazy.force checked in
  {
    Echo.Pipeline.cs_name = "deps";
    cs_refactor =
      (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
    cs_annotate = (fun p -> p);
    cs_original_spec = Extract.extract_program env prog;
    cs_synonyms = [];
    cs_lemmas =
      (fun ~extracted:_ ->
        [ Echo.Implication.structural ~name:"deps_struct" ~original:"deps"
            ~extracted:"deps" ~premises:[] ~check:(fun () -> true) () ]);
  }

(* machine-independent outcome key; the timed-out payload is wall-clock *)
let status_key (vr : IP.vc_result) =
  let s =
    match vr.IP.vr_status with
    | IP.Auto -> "auto"
    | IP.Hinted n -> Printf.sprintf "hinted:%d" n
    | IP.Residual r -> "residual:" ^ r
    | IP.Timed_out _ -> "timed-out"
    | IP.Discharged -> "discharged"
  in
  (vr.IP.vr_vc.Logic.Formula.vc_sub, vr.IP.vr_vc.Logic.Formula.vc_name, s)

let verdict_keys r =
  match r.O.o_impl with
  | Some ip -> List.sort compare (List.map status_key ip.IP.ip_results)
  | None -> Alcotest.fail "run produced no implementation proof"

let verdict_str r = Fmt.str "%a" O.pp_verdict r.O.o_verdict

(* The edits under analysis.  The orchestrator applies them to the
   baseline's annotated program as re-parsed from its checkpoint, so the
   mutation sites address the pre-normalisation AST. *)
let benign_edit = prepend_assert "quad"

let operator_defect prog =
  (* double: x + x becomes x - x; its own VC fails and its callers'
     ground evaluation changes *)
  Defects.Seed.mutate_expr_sites ~sub_name:"double"
    ~site:(function Ast.Binop (Ast.Add, _, _) -> true | _ -> false)
    ~rewrite:(function
      | Ast.Binop (_, a, b) -> Ast.Binop (Ast.Sub, a, b)
      | e -> e)
    ~nth:0 prog

let statement_defect prog =
  (* stash: deleting [t := v] leaves g := t with t unconstrained *)
  Defects.Seed.delete_statement ~sub_name:"stash" ~nth:0 prog

let test_incremental_matches_full () =
  let base_dir = temp_run_dir "base" in
  let cfg_base = { O.default_config with O.oc_run_dir = Some base_dir } in
  let r_base = O.run ~config:cfg_base (deps_case ()) in
  let dirs = ref [ base_dir ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun d -> CK.clear ~dir:d) !dirs)
    (fun () ->
      (match r_base.O.o_verdict with
      | O.Verified -> ()
      | v -> Alcotest.failf "baseline not verified: %a" O.pp_verdict v);
      (* the same baseline as a served job sees it: the outline of the
         checked annotated source plus the summarized per-VC results *)
      let base_src =
        match CK.load ~dir:base_dir ~case:"deps" CK.S_annotate with
        | Some (Ok (CK.P_annotate { pa_src })) -> pa_src
        | _ -> Alcotest.fail "baseline annotate checkpoint missing"
      in
      let served_baseline =
        match r_base.O.o_impl with
        | Some ip ->
            {
              Echo.Verify.vb_outline =
                SD.outline (snd (Typecheck.check (Parser.of_string base_src)));
              vb_results = List.map IP.summarize ip.IP.ip_results;
            }
        | None -> Alcotest.fail "baseline produced no implementation proof"
      in
      List.iter
        (fun (tag, edit, expect_verified) ->
          let ref_dir = temp_run_dir (tag ^ "-ref") in
          let incr_dir = temp_run_dir (tag ^ "-incr") in
          dirs := ref_dir :: incr_dir :: !dirs;
          let cfg_ref =
            { cfg_base with
              O.oc_run_dir = Some ref_dir;
              oc_baseline = Some base_dir;
              oc_edit = Some edit;
              oc_carry = false }
          in
          let cfg_incr =
            { cfg_ref with O.oc_run_dir = Some incr_dir; oc_carry = true }
          in
          let r_ref = O.run ~config:cfg_ref (deps_case ()) in
          let r_incr = O.run ~config:cfg_incr (deps_case ()) in
          Alcotest.(check string)
            (tag ^ ": incremental verdict matches full re-prove")
            (verdict_str r_ref) (verdict_str r_incr);
          Alcotest.(check
                      (list (triple string string string)))
            (tag ^ ": per-VC verdicts identical")
            (verdict_keys r_ref) (verdict_keys r_incr);
          let audit =
            match r_incr.O.o_impact with
            | Some audit -> audit
            | None -> Alcotest.fail (tag ^ ": incremental run has no audit")
          in
          Alcotest.(check bool)
            (tag ^ ": some baseline verdicts were carried") true
            (audit.CK.im_carried_vcs > 0);
          (* cross-driver agreement: the served job plans the same carry *)
          let served =
            Echo.Verify.run
              ~options:
                { Echo.Verify.default_options with
                  Echo.Verify.vo_baseline = Some served_baseline }
              ~source:(Pretty.program_to_string (edit (Parser.of_string base_src)))
              ()
          in
          Alcotest.(check
                      (list (triple string string string)))
            (tag ^ ": served per-VC verdicts match the orchestrator")
            (verdict_keys r_incr)
            (List.sort compare
               (List.map
                  (fun (s : Echo.Verify.vc_summary) ->
                    (s.Echo.Verify.vs_sub, s.Echo.Verify.vs_name,
                     s.Echo.Verify.vs_status))
                  served.Echo.Verify.vj_results));
          Alcotest.(check string)
            (tag ^ ": served verdict matches the orchestrator")
            (verdict_str r_incr)
            (Fmt.str "%a" O.pp_verdict served.Echo.Verify.vj_verdict);
          Alcotest.(check int)
            (tag ^ ": served carry count matches the audit")
            audit.CK.im_carried_vcs served.Echo.Verify.vj_carried;
          Alcotest.(check int)
            (tag ^ ": served impact set matches the audit")
            (List.length audit.CK.im_impacted)
            served.Echo.Verify.vj_impacted_subs;
          if expect_verified then
            match r_incr.O.o_verdict with
            | O.Verified -> ()
            | v ->
                Alcotest.failf "%s: benign edit should stay verified, got %a"
                  tag O.pp_verdict v)
        [ ("benign-assert", benign_edit, true);
          ("operator-defect", operator_defect, false);
          ("statement-defect", statement_defect, false) ])

let suites =
  [ ( "impact:depgraph",
      [ Alcotest.test_case "edges and edge kinds" `Quick test_depgraph_edges;
        Alcotest.test_case "closures and frontiers" `Quick
          test_depgraph_closures ] );
    ( "impact:semdiff",
      [ Alcotest.test_case "classification" `Quick test_semdiff_classification;
        Alcotest.test_case "added/removed" `Quick test_semdiff_added_removed;
        Alcotest.test_case "declaration change impact" `Quick
          test_decl_change_impact ] );
    ( "impact:semdiff-identity",
      [ Alcotest.test_case "AES and its assert edits" `Quick test_identity_aes_edits;
        Alcotest.test_case "seeded defect surfaces" `Quick test_identity_seeds;
        Alcotest.test_case "example programs" `Quick test_identity_examples;
        Alcotest.test_case "signature, constant, added, removed, duplicates" `Quick
          test_identity_hand_edits;
        QCheck_alcotest.to_alcotest prop_identity_bodies ] );
    ( "impact:properties",
      [ QCheck_alcotest.to_alcotest test_single_edit_precision ] );
    ( "impact:incremental",
      [ Alcotest.test_case "incremental matches full on seeded defects"
          `Quick test_incremental_matches_full ] ) ]
