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

   Each run is {!Echo.Orchestrator.run} on the AES case study with the
   defective program and the setup's annotator.  A defect is caught at
   the refactoring stage if any transformation's mechanical applicability
   check rejects it (template mismatch, failed instance-equivalence
   proof) — the paper's "a defect could change the code such that it did
   not match a particular transformation template" — or a certificate
   refutes a step. *)

open Minispark
module O = Echo.Orchestrator

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
  let open Echo.Implementation_proof in
  List.filter_map
    (fun v ->
      match v.vr_status with
      | Residual _ -> Some (v.vr_vc.Logic.Formula.vc_sub, v.vr_vc.Logic.Formula.vc_kind)
      | _ -> None)
    r.ip_results
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

let annotate_for setup program =
  match setup with
  | Setup1 -> annotate_pre_only program
  | Setup2 -> Aes.Aes_annotations.annotate program

(* ------------------------------------------------------------------ *)
(* One case: the orchestrated run and its classification              *)
(* ------------------------------------------------------------------ *)

(* A case's refactoring: the verification refactoring from [program]
   (the KAT gate is off — the vectors are not part of the Echo
   process), so a program that does not type-check is the refactor
   stage's fault *)
let refactoring program ?certify () =
  let start = Typecheck.check program in
  let snapshots, history = Aes.Aes_refactoring.run ~kat_gate:false ?certify ~start () in
  ( List.map
      (fun s -> (s.Aes.Aes_refactoring.sn_env, s.Aes.Aes_refactoring.sn_program))
      snapshots,
    history )

(* ... or none: [program] is already refactored.  [env] is the clean
   program's; the annotate stage checks [program] *)
let unrefactored env program ?certify:_ () =
  ([ (env, program) ], Refactor.History.create env program)

let orchestrate ?(max_steps = 20_000) setup refactor =
  O.run
    ~config:{ O.default_config with O.oc_max_steps = max_steps }
    {
      Aes.Aes_echo.case_study with
      Echo.Pipeline.cs_refactor = refactor;
      cs_annotate = annotate_for setup;
    }

(* Where a run stopped the defect, and why, from its report: a failed
   refactor or certify stage, then a failed annotation or a residual
   profile grown past the clean run's, then a failed extraction or
   lemma.  [clean] is the clean run's residual profile. *)
let classify ~clean (r : O.report) =
  let failed s =
    match List.assoc_opt s r.O.o_stages with Some (O.St_failed f) -> Some f | _ -> None
  in
  let first = List.find_map failed in
  match first Echo.Checkpoint.[ S_refactor; S_certify ] with
  | Some (Echo.Fault.Type msg) ->
      (Caught_refactoring, "defective program does not type-check: " ^ msg)
  | Some (Echo.Fault.Refactor msg) -> (Caught_refactoring, msg)
  | Some f -> (Caught_refactoring, Echo.Fault.describe f)
  | None -> (
      match (first Echo.Checkpoint.[ S_annotate; S_impl ], r.O.o_impl) with
      | Some (Echo.Fault.Type msg), _ ->
          (Caught_implementation, "annotated program does not type-check: " ^ msg)
      | Some f, _ -> (Caught_implementation, Echo.Fault.describe f)
      | None, Some impl
        when profile_regressed ~baseline:clean ~defective:(residual_profile impl) ->
          ( Caught_implementation,
            "verification conditions failed beyond the clean baseline" )
      | None, _ -> (
          match
            ( first Echo.Checkpoint.[ S_extract; S_implication ],
              List.find_opt (fun (_, holds, _) -> not holds) r.O.o_lemmas )
          with
          | Some (Echo.Fault.Lemma { lemma = "<extraction>"; reason }), _ ->
              (Caught_implication, "specification extraction failed: " ^ reason)
          | Some f, _ -> (Caught_implication, Echo.Fault.describe f)
          | None, Some (name, _, reason) -> (Caught_implication, name ^ ": " ^ reason)
          | None, None -> (Not_caught, "all proofs succeed")))

type baselines = setup -> (string * Logic.Formula.vc_kind) list

(* the clean residual profiles: the same orchestrated run on the clean
   program, once per setup *)
let clean_runs ?max_steps refactor : baselines =
  let profile setup =
    let r = orchestrate ?max_steps setup refactor in
    match r.O.o_impl with
    | Some impl -> residual_profile impl
    | None -> Fmt.failwith "clean run: %a" O.pp_verdict r.O.o_verdict
  in
  let p1 = profile Setup1 and p2 = profile Setup2 in
  function Setup1 -> p1 | Setup2 -> p2

let original () = snd (Aes.Aes_impl.checked ())

let baselines ?max_steps () = clean_runs ?max_steps (refactoring (original ()))

let run_case ?max_steps ~baselines setup refactor (defect : Seed.defect) =
  let rr_stage, rr_note =
    classify ~clean:(baselines setup) (orchestrate ?max_steps setup refactor)
  in
  { rr_defect = defect; rr_stage; rr_note }

let run_one ?max_steps ~baselines setup (defect : Seed.defect) =
  run_case ?max_steps ~baselines setup
    (refactoring (defect.Seed.d_apply (original ()))) defect

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

(* both setups over [defects], each defect's case built by [refactor] *)
let run_tables ?max_steps ~baselines ~refactor defects =
  let run setup =
    tabulate setup
      (List.map
         (fun d -> run_case ?max_steps ~baselines setup (refactor d) d)
         defects)
  in
  (run Setup1, run Setup2)

(** The full §7.3 experiment: both setups over the 15 seeded defects. *)
let run_experiment ?max_steps ?seed () =
  let prog0 = original () in
  run_tables ?max_steps ~baselines:(baselines ?max_steps ())
    ~refactor:(fun d -> refactoring (d.Seed.d_apply prog0))
    (Seed.seed_all ?seed prog0)

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
(* program and runs the same cases with no refactoring step.            *)
(* ------------------------------------------------------------------ *)

let refactored_subs = [ "encrypt"; "decrypt"; "key_expansion"; "sub_bytes";
                        "mix_columns"; "add_round_key" ]

let refactored_ref_pairs =
  [ ("sbox", "inv_sbox"); ("src", "dst"); ("k0", "k1"); ("s", "t") ]

(** The extension experiment: defects seeded into the refactored program,
    detection by the two proofs only. *)
let run_post_experiment ?max_steps ?seed () =
  let env, final = List.nth (fst (refactoring (original ()) ())) 14 in
  run_tables ?max_steps
    ~baselines:(clean_runs ?max_steps (unrefactored env final))
    ~refactor:(fun d -> unrefactored env (d.Seed.d_apply final))
    (Seed.seed_all ?seed ~subs:refactored_subs ~ref_pairs:refactored_ref_pairs final)
