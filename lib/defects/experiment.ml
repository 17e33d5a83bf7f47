(* The seeded-defect experiment (§7.2/§7.3, Tables 2 and 3).

   For each seeded defect, the Echo process runs twice:

   - setup 1 ("annotations correspond to the functional behaviour of the
     code"): functional postconditions are withheld — an annotator
     describing the defective code would have written formulas matching
     it — so the implementation proof can only catch a defect through
     exception freedom (out-of-bound indices, range violations), and
     functional defects flow to the implication proof, where the
     specification extracted from the defective code is compared with the
     original specification;

   - setup 2 ("annotations correspond to the high-level specification"):
     the standard annotation set (Aes_annotations) is used; inconsistencies
     between defective code and specification-derived annotations surface
     in the implementation proof.

   A defect is caught at the refactoring stage if any transformation's
   mechanical applicability check rejects it (template mismatch, failed
   instance-equivalence proof) — the paper's "a defect could change the
   code such that it did not match a particular transformation template". *)

open Minispark

type stage =
  | Caught_refactoring
  | Caught_implementation
  | Caught_implication
  | Not_caught

let stage_name = function
  | Caught_refactoring -> "verification refactoring"
  | Caught_implementation -> "implementation proof"
  | Caught_implication -> "implication proof"
  | Not_caught -> "not caught (benign)"

type setup =
  | Setup1  (** annotations match the code *)
  | Setup2  (** annotations match the specification *)

type run_result = {
  rr_defect : Seed.defect;
  rr_stage : stage;
  rr_note : string;
}

(* residual profile of an implementation-proof report: (sub, kind) counts *)
let residual_profile (r : Echo.Implementation_proof.report) =
  List.filter_map
    (fun (v : Echo.Implementation_proof.vc_result) ->
      match v.Echo.Implementation_proof.vr_status with
      | Echo.Implementation_proof.Residual _ ->
          Some (v.Echo.Implementation_proof.vr_vc.Logic.Formula.vc_sub,
                v.Echo.Implementation_proof.vr_vc.Logic.Formula.vc_kind)
      | _ -> None)
    r.Echo.Implementation_proof.ip_results
  |> List.sort compare

let profile_regressed ~baseline ~defective =
  (* any (sub, kind) whose residual count grew *)
  let count key l = List.length (List.filter (( = ) key) l) in
  List.exists (fun key -> count key defective > count key baseline)
    (List.sort_uniq compare defective)

(* setup-1 annotations: preconditions only (the functional annotations are
   assumed adjusted to the defective code) *)
let annotate_pre_only program =
  let annotated = Aes.Aes_annotations.annotate program in
  let decls =
    List.map
      (function
        | Ast.Dsub s ->
            Ast.Dsub
              {
                s with
                Ast.sub_post = None;
                sub_body =
                  Ast.map_stmts
                    (fun st ->
                      match st with
                      | Ast.For fl -> [ Ast.For { fl with Ast.for_invariants = [] } ]
                      | Ast.While wl -> [ Ast.While { wl with Ast.while_invariants = [] } ]
                      | Ast.Assert _ -> []
                      | st -> [ st ])
                    s.Ast.sub_body;
              }
        | d -> d)
      annotated.Ast.prog_decls
  in
  { annotated with Ast.prog_decls = decls }

type baselines = {
  bl_profile_setup1 : (string * Logic.Formula.vc_kind) list;
  bl_profile_setup2 : (string * Logic.Formula.vc_kind) list;
}

let annotate_for setup program =
  match setup with
  | Setup1 -> annotate_pre_only program
  | Setup2 -> Aes.Aes_annotations.annotate program

(** Compute clean-run baselines (the residual profiles of the unmodified
    program under both annotation regimes). *)
let baselines ?(max_steps = 20_000) () =
  let snapshots, _ = Aes.Aes_refactoring.run () in
  let final = List.nth snapshots 14 in
  let profile setup =
    let annotated =
      annotate_for setup final.Aes.Aes_refactoring.sn_program
    in
    let env, annotated = Typecheck.check annotated in
    residual_profile (Echo.Implementation_proof.run ~max_steps env annotated)
  in
  { bl_profile_setup1 = profile Setup1; bl_profile_setup2 = profile Setup2 }

(** Run the Echo process on one defective program under one setup. *)
let run_one ?(max_steps = 20_000) ~(baselines : baselines) setup (defect : Seed.defect) :
    run_result =
  let env0, prog0 = Aes.Aes_impl.checked () in
  ignore env0;
  let defective = defect.Seed.d_apply prog0 in
  match Typecheck.check defective with
  | exception Typecheck.Type_error msg ->
      { rr_defect = defect; rr_stage = Caught_refactoring;
        rr_note = "defective program does not type-check: " ^ msg }
  | start -> (
      (* stage 1: verification refactoring *)
      match Aes.Aes_refactoring.run ~kat_gate:false ~start () with
      | exception Refactor.Transform.Not_applicable msg ->
          { rr_defect = defect; rr_stage = Caught_refactoring; rr_note = msg }
      | snapshots, _ -> (
          let final = List.nth snapshots 14 in
          let prog = final.Aes.Aes_refactoring.sn_program in
          (* stage 2: implementation proof *)
          let annotated = annotate_for setup prog in
          match Typecheck.check annotated with
          | exception Typecheck.Type_error msg ->
              { rr_defect = defect; rr_stage = Caught_implementation;
                rr_note = "annotated program does not type-check: " ^ msg }
          | env, annotated -> (
              let report = Echo.Implementation_proof.run ~max_steps env annotated in
              let baseline =
                match setup with
                | Setup1 -> baselines.bl_profile_setup1
                | Setup2 -> baselines.bl_profile_setup2
              in
              if profile_regressed ~baseline ~defective:(residual_profile report) then
                { rr_defect = defect; rr_stage = Caught_implementation;
                  rr_note = "verification conditions failed beyond the clean baseline" }
              else
                (* stage 3: implication proof *)
                match Extract.extract_program env annotated with
                | exception Extract.Unextractable msg ->
                    { rr_defect = defect; rr_stage = Caught_implication;
                      rr_note = "specification extraction failed: " ^ msg }
                | extracted -> (
                    let imp = Aes.Aes_implication.run ~extracted in
                    match
                      List.find_opt
                        (fun (_, o) ->
                          match o with Echo.Implication.Fails _ -> true | _ -> false)
                        imp.Echo.Implication.im_lemmas
                    with
                    | Some (l, Echo.Implication.Fails msg) ->
                        { rr_defect = defect; rr_stage = Caught_implication;
                          rr_note = Printf.sprintf "%s: %s" l.Echo.Implication.lm_name msg }
                    | _ ->
                        { rr_defect = defect; rr_stage = Not_caught;
                          rr_note = "all proofs succeed" }))))

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3                                                      *)
(* ------------------------------------------------------------------ *)

type table = {
  tb_setup : setup;
  tb_results : run_result list;
  tb_refactoring : int;
  tb_implementation : int;
  tb_implication : int;
  tb_left : int;
}

let tabulate setup results =
  let count st =
    List.length (List.filter (fun r -> r.rr_stage = st) results)
  in
  {
    tb_setup = setup;
    tb_results = results;
    tb_refactoring = count Caught_refactoring;
    tb_implementation = count Caught_implementation;
    tb_implication = count Caught_implication;
    tb_left = count Not_caught;
  }

(** The full §7.3 experiment: both setups over the 15 seeded defects. *)
let run_experiment ?max_steps ?seed () =
  let _, prog0 = Aes.Aes_impl.checked () in
  let defects = Seed.seed_all ?seed prog0 in
  let bl = baselines ?max_steps () in
  let run setup =
    tabulate setup (List.map (run_one ?max_steps ~baselines:bl setup) defects)
  in
  (run Setup1, run Setup2)

let pp_table ppf t =
  let setup_name = match t.tb_setup with Setup1 -> "setup 1" | Setup2 -> "setup 2" in
  Fmt.pf ppf "@[<v>Defect detection for %s:@," setup_name;
  Fmt.pf ppf "  %-34s %7s@," "Verification Stage" "Caught";
  Fmt.pf ppf "  %-34s %7d@," "Verification refactoring" t.tb_refactoring;
  Fmt.pf ppf "  %-34s %7d@," "Implementation proof" t.tb_implementation;
  Fmt.pf ppf "  %-34s %7d@," "Implication proof" t.tb_implication;
  Fmt.pf ppf "  %-34s %7d@," "Left (benign)" t.tb_left;
  List.iter
    (fun r ->
      Fmt.pf ppf "    %a -> %s@," Seed.pp_defect r.rr_defect (stage_name r.rr_stage))
    t.tb_results;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Post-refactoring variant (extension)                                *)
(*                                                                     *)
(* Our refactoring stage checks every transformation instance against   *)
(* user-supplied templates and replacement bodies, so defects seeded    *)
(* into the *original* program are mostly caught before the proofs ever *)
(* run (see EXPERIMENTS.md).  To expose the paper's setup-1/setup-2     *)
(* contrast — where annotation placement decides whether the            *)
(* implementation or the implication proof catches a fault — this       *)
(* variant seeds the same defect types into the *final refactored*      *)
(* program and runs only the two proofs.                                *)
(* ------------------------------------------------------------------ *)

let refactored_subs = [ "encrypt"; "decrypt"; "key_expansion"; "sub_bytes";
                        "mix_columns"; "add_round_key" ]

let refactored_ref_pairs =
  [ ("sbox", "inv_sbox"); ("src", "dst"); ("k0", "k1"); ("s", "t") ]

let run_one_post ?(max_steps = 20_000) ~(baselines : baselines) setup final_program
    (defect : Seed.defect) : run_result =
  let defective = defect.Seed.d_apply final_program in
  match Typecheck.check (annotate_for setup defective) with
  | exception Typecheck.Type_error msg ->
      { rr_defect = defect; rr_stage = Caught_implementation;
        rr_note = "annotated defective program does not type-check: " ^ msg }
  | env, annotated -> (
      let report = Echo.Implementation_proof.run ~max_steps env annotated in
      let baseline =
        match setup with
        | Setup1 -> baselines.bl_profile_setup1
        | Setup2 -> baselines.bl_profile_setup2
      in
      if profile_regressed ~baseline ~defective:(residual_profile report) then
        { rr_defect = defect; rr_stage = Caught_implementation;
          rr_note = "verification conditions failed beyond the clean baseline" }
      else
        match Extract.extract_program env annotated with
        | exception Extract.Unextractable msg ->
            { rr_defect = defect; rr_stage = Caught_implication;
              rr_note = "specification extraction failed: " ^ msg }
        | extracted -> (
            let imp = Aes.Aes_implication.run ~extracted in
            match
              List.find_opt
                (fun (_, o) -> match o with Echo.Implication.Fails _ -> true | _ -> false)
                imp.Echo.Implication.im_lemmas
            with
            | Some (l, Echo.Implication.Fails msg) ->
                { rr_defect = defect; rr_stage = Caught_implication;
                  rr_note = Printf.sprintf "%s: %s" l.Echo.Implication.lm_name msg }
            | _ ->
                { rr_defect = defect; rr_stage = Not_caught;
                  rr_note = "all proofs succeed" }))

(** The extension experiment: defects seeded into the refactored program,
    detection by the two proofs only. *)
let run_post_experiment ?max_steps ?seed () =
  let snapshots, _ = Aes.Aes_refactoring.run () in
  let final = (List.nth snapshots 14).Aes.Aes_refactoring.sn_program in
  let defects =
    Seed.seed_all ?seed ~subs:refactored_subs ~ref_pairs:refactored_ref_pairs final
  in
  let bl = baselines ?max_steps () in
  let run setup =
    tabulate setup (List.map (run_one_post ?max_steps ~baselines:bl setup final) defects)
  in
  (run Setup1, run Setup2)
