(* Per-step certification of refactoring transformations.

   Every applied transformation must carry evidence that it preserved
   semantics.  The decision procedure, per touched subprogram:

   1. [M_identical] — the two versions differ only in annotations
      (asserts, invariants, contracts), which the interpreter does not
      execute: nothing to prove.
   2. [M_vc] — static side: {!Vcgen.equivalence_sub} builds old = new
      equivalence VCs under both versions' preconditions (the
      applicability side-conditions); they are discharged on the proof
      farm ({!Farm.Pool}) through the content-addressed proof cache, so a
      repeated script re-certifies for free.  Loopy or under-constrained
      bodies make generation raise [Infeasible], and an unproved VC is
      never a refutation — both fall through to:
   3. [M_closure] — everything a run of an entry-point target can
      observe is the same in both versions, which both initialise
      ({!Equivalence.same_closure}).  Then [M_scheme] / [M_reused] — the
      step's claim ({!Transform.claim}), checked against the step's own
      pair: a table reversal replayed under its scheme's side-conditions
      ({!Table_reverse.check_scheme}), a split or clone extraction inlined
      back under its scheme's ({!Extraction.check_scheme}), a renaming
      renamed back ({!Storage_adjust.check_renaming}), or the
      transformation's own oracle
      verdict, reused when it was reached on these two programs with at
      least [cf_trials] trials under [cf_fuel].
   4. [M_oracle] — dynamic side: the differential oracle
      ({!Equivalence.oracle}, [cf_trials] seeded samples under [cf_fuel]).
      QCheck generates typed inputs (from the after version's parameter
      types, restricted to the precondition's sampling domains), both
      versions run under the fuel bound, and final values are compared.
      Small domains are enumerated exhaustively — a decision, not a test.
      A mismatch, a crash, or fuel exhaustion introduced by the rewrite is
      a concrete counterexample: the step is [Refuted].
   5. [M_entries] — a target the oracle cannot sample locally falls back
      to differential execution of the configured entry points
      ([cf_entries]), which are also the targets of a step that changes
      the program's shape.

   Anything still undecided yields [Unknown] — recorded, surfaced, never
   silently dropped. *)

open Minispark
module F = Logic.Formula
module P = Logic.Prover

type counterexample = Equivalence.counterexample = {
  cx_sub : string;
  cx_inputs : string;
  cx_before : string;
  cx_after : string;
}

let counterexample_to_string = Equivalence.counterexample_to_string

type method_ =
  | M_identical
  | M_closure
  | M_scheme of string
  | M_vc of int  (** number of equivalence VCs discharged *)
  | M_reused of { trials : int; exhaustive : bool }
  | M_oracle of { trials : int; exhaustive : bool }
  | M_entries of { trials : int }

let oracle_to_string trials exhaustive =
  Printf.sprintf "oracle:%d%s" trials (if exhaustive then ":exhaustive" else "")

let method_to_string = function
  | M_identical -> "identical"
  | M_closure -> "closure"
  | M_scheme s -> "scheme:" ^ s
  | M_vc n -> Printf.sprintf "vc:%d" n
  | M_reused { trials; exhaustive } -> "reused:" ^ oracle_to_string trials exhaustive
  | M_oracle { trials; exhaustive } -> oracle_to_string trials exhaustive
  | M_entries { trials } -> Printf.sprintf "entries:%d" trials

let decided = function
  | M_identical | M_closure | M_scheme _ | M_vc _ -> true
  | M_reused { exhaustive; _ } | M_oracle { exhaustive; _ } -> exhaustive
  | M_entries _ -> false

type certificate =
  | Certified of (string * method_) list  (** per-target evidence *)
  | Refuted of counterexample
  | Unknown of string

let describe = function
  | Certified ms ->
      Printf.sprintf "certified (%s)"
        (String.concat "; "
           (List.map (fun (s, m) -> s ^ " " ^ method_to_string m) ms))
  | Refuted cx -> "refuted: " ^ counterexample_to_string cx
  | Unknown why -> "unknown: " ^ why

exception Refutation of { rf_step : string; rf_cx : counterexample }

type config = {
  cf_seed : int;
  cf_trials : int;        (** oracle trials per target *)
  cf_fuel : int;          (** interpreter step bound per oracle run *)
  cf_jobs : int;          (** proof-farm workers for VC discharge *)
  cf_cache : Farm.Cache.t option;
  cf_budget : Vcgen.budget;
  cf_entries : string list;
      (** behavioural entry points: certification targets when the
          program shape changed, fallback for unsampleable targets *)
}

let default_config ?(entries = []) () =
  {
    cf_seed = 42;
    cf_trials = 24;
    cf_fuel = 2_000_000;
    cf_jobs = 1;
    cf_cache = None;
    cf_budget = Vcgen.default_budget;
    cf_entries = entries;
  }

type stats = {
  ct_steps : int;
  ct_targets : int;
  ct_vcs_generated : int;
  ct_vcs_proved : int;
  ct_cache_hits : int;
  ct_cache_misses : int;
  ct_oracle_trials : int;
  ct_decided : int;
  ct_sampled : int;
  ct_vc_seconds : float;
  ct_oracle_seconds : float;
}

let zero_stats =
  {
    ct_steps = 0;
    ct_targets = 0;
    ct_vcs_generated = 0;
    ct_vcs_proved = 0;
    ct_cache_hits = 0;
    ct_cache_misses = 0;
    ct_oracle_trials = 0;
    ct_decided = 0;
    ct_sampled = 0;
    ct_vc_seconds = 0.0;
    ct_oracle_seconds = 0.0;
  }

let add_stats a b =
  {
    ct_steps = a.ct_steps + b.ct_steps;
    ct_targets = a.ct_targets + b.ct_targets;
    ct_vcs_generated = a.ct_vcs_generated + b.ct_vcs_generated;
    ct_vcs_proved = a.ct_vcs_proved + b.ct_vcs_proved;
    ct_cache_hits = a.ct_cache_hits + b.ct_cache_hits;
    ct_cache_misses = a.ct_cache_misses + b.ct_cache_misses;
    ct_oracle_trials = a.ct_oracle_trials + b.ct_oracle_trials;
    ct_decided = a.ct_decided + b.ct_decided;
    ct_sampled = a.ct_sampled + b.ct_sampled;
    ct_vc_seconds = a.ct_vc_seconds +. b.ct_vc_seconds;
    ct_oracle_seconds = a.ct_oracle_seconds +. b.ct_oracle_seconds;
  }

(* ------------------------------------------------------------------ *)
(* Semantic diff                                                       *)
(* ------------------------------------------------------------------ *)

(* Annotations (asserts, invariants, contracts) are not executed, so two
   bodies differing only there are dynamically identical. *)
let rec strip_stmts ss = List.concat_map strip_stmt ss

and strip_stmt (s : Ast.stmt) : Ast.stmt list =
  match s with
  | Ast.Assert _ | Ast.Null -> []
  | Ast.If (branches, els) ->
      [ Ast.If
          ( List.map (fun (g, b) -> (g, strip_stmts b)) branches,
            strip_stmts els ) ]
  | Ast.For fl ->
      [ Ast.For
          { fl with Ast.for_body = strip_stmts fl.Ast.for_body;
            Ast.for_invariants = [] } ]
  | Ast.While wl ->
      [ Ast.While
          { wl with Ast.while_body = strip_stmts wl.Ast.while_body;
            Ast.while_invariants = [] } ]
  | s -> [ s ]

let rec deep_resolve env t =
  match Typecheck.resolve env t with
  | Ast.Tarray (lo, hi, elt) -> Ast.Tarray (lo, hi, deep_resolve env elt)
  | t -> t

(* dynamic interface: positional modes and resolved types *)
let sub_interface env (sub : Ast.subprogram) =
  ( List.map
      (fun (p : Ast.param) -> (p.Ast.par_mode, deep_resolve env p.Ast.par_typ))
      sub.Ast.sub_params,
    Option.map (deep_resolve env) sub.Ast.sub_return )

(* everything that determines dynamic behaviour of the body *)
let sub_semantics env (sub : Ast.subprogram) =
  ( sub_interface env sub,
    List.map (fun (p : Ast.param) -> p.Ast.par_name) sub.Ast.sub_params,
    List.map
      (fun (v : Ast.var_decl) ->
        (v.Ast.v_name, deep_resolve env v.Ast.v_typ, v.Ast.v_init))
      sub.Ast.sub_locals,
    strip_stmts sub.Ast.sub_body )

type target = {
  tg_name : string;
  tg_vc_ok : bool;  (** interface and parameter names identical: eligible
                        for shared-symbol equivalence VCs *)
  tg_entry : bool;  (** an unchanged entry point: the only kind of target
                        whose closure can be the same in both versions *)
}

(* Changed comparable subprograms, plus whether anything changed that a
   per-subprogram comparison cannot localise (added/removed subs,
   interface changes, global object or type changes). *)
let diff (env_a, prog_a) (env_b, prog_b) =
  let subs_a = Ast.subprograms prog_a and subs_b = Ast.subprograms prog_b in
  let globals_changed =
    let objs env p =
      List.map
        (fun (c : Ast.const_decl) ->
          (c.Ast.k_name, `C (deep_resolve env c.Ast.k_typ, c.Ast.k_value)))
        (Ast.constants p)
      @ List.map
          (fun (v : Ast.var_decl) ->
            (v.Ast.v_name, `V (deep_resolve env v.Ast.v_typ, v.Ast.v_init)))
          (Ast.global_vars p)
    in
    objs env_a prog_a <> objs env_b prog_b
  in
  let changed, incomparable =
    List.fold_left
      (fun (changed, incomp) (sb : Ast.subprogram) ->
        match
          List.find_opt
            (fun (sa : Ast.subprogram) -> sa.Ast.sub_name = sb.Ast.sub_name)
            subs_a
        with
        | None -> (changed, true) (* added subprogram *)
        | Some sa ->
            let ia, names_a, locals_a, body_a = sub_semantics env_a sa in
            let ib, names_b, locals_b, body_b = sub_semantics env_b sb in
            if (ia, names_a, locals_a, body_a) = (ib, names_b, locals_b, body_b)
            then (changed, incomp)
            else if ia = ib then
              ( { tg_name = sb.Ast.sub_name; tg_vc_ok = names_a = names_b;
                  tg_entry = false }
                :: changed,
                incomp )
            else (changed, true) (* interface changed: not comparable *))
      ([], false) subs_b
  in
  let removed =
    List.exists
      (fun (sa : Ast.subprogram) ->
        not
          (List.exists
             (fun (sb : Ast.subprogram) -> sb.Ast.sub_name = sa.Ast.sub_name)
             subs_b))
      subs_a
  in
  (List.rev changed, globals_changed || incomparable || removed)

(* ------------------------------------------------------------------ *)
(* Static side: equivalence VCs on the proof farm                      *)
(* ------------------------------------------------------------------ *)

(* the suffix versions the key with the prover's search: "v1" entries were
   recorded before quantifier instantiation was pattern-directed, when a
   VC could exhaust a step budget that today's search proves within, and
   "v2" entries before a discharged instance's conjuncts became facts of
   their own *)
let cache_key vc = F.vc_digest vc ^ ":certify:v3"

(* the cache entry a proof leaves; a timeout is wall-clock dependent and
   never cached *)
let cache_entry (r : P.proof_result) =
  match r.P.pr_outcome with
  | P.Proved when r.P.pr_hints_used = 0 -> Some Farm.Cache.E_auto
  | P.Proved -> Some (Farm.Cache.E_hinted r.P.pr_hints_used)
  | P.Unknown why -> Some (Farm.Cache.E_residual why)
  | P.Timeout _ -> None

(* ------------------------------------------------------------------ *)
(* The decision procedure, step by step on the farm                   *)
(* ------------------------------------------------------------------ *)

type step = {
  sp_name : string;
  sp_before : Typecheck.env * Ast.program;
  sp_after : Typecheck.env * Ast.program;
  sp_claim : Transform.claim option;
}

(* ------------------------------------------------------------------ *)
(* Claims: checked against the step, never trusted                     *)
(* ------------------------------------------------------------------ *)

let claim_covers (claim : Transform.claim) name =
  match claim with
  | Transform.Table_reversal _ | Transform.Extraction _ | Transform.Renaming _ -> true
  | Transform.Oracle_agreement { target; _ } -> String.equal target name

let claim_method : Transform.claim -> method_ = function
  | Transform.Table_reversal _ -> M_scheme "reverse_table"
  | Transform.Extraction _ -> M_scheme "extraction"
  | Transform.Renaming _ -> M_scheme "renaming"
  | Transform.Oracle_agreement { trials; exhaustive; _ } -> M_reused { trials; exhaustive }

let check_claim cfg (step : step) (claim : Transform.claim) =
  match claim with
  | Transform.Table_reversal { table; index_var; replacement; helpers } ->
      Table_reverse.check_scheme ~table ~index_var ~replacement ~helpers step.sp_before
        step.sp_after
  | Transform.Extraction { callee } ->
      Extraction.check_scheme ~callee step.sp_before step.sp_after
  | Transform.Renaming { from_name; to_name } ->
      Storage_adjust.check_renaming ~from_name ~to_name step.sp_before step.sp_after
  | Transform.Oracle_agreement { trials; exhaustive; fuel; before_digest; after_digest; _ } ->
      if fuel <> cfg.cf_fuel then Error "reached under another fuel bound"
      else if (not exhaustive) && trials < cfg.cf_trials then
        Error (Printf.sprintf "%d trials, fewer than %d" trials cfg.cf_trials)
      else if
        not
          (String.equal before_digest (Share.decls_digest (snd step.sp_before))
          && String.equal after_digest (Share.decls_digest (snd step.sp_after)))
      then Error "reached on other programs"
      else Ok ()

(* Where one equivalence VC's verdict comes from.  Cache lookups are made
   in step order as if each step saved its proofs before the next looked:
   a key an earlier step proved is that later step's hit when the proof
   is cacheable. *)
type vc_slot =
  | Cached of bool  (* in the cache before certification: proved? *)
  | Job of { key : string; first : bool }
      (* proved by the farm job of the step that first looked [key] up;
         [first] for that step *)

type plan =
  | Settled of certificate  (* identical versions, or no target at all *)
  | Run of {
      targets : target list;
      batches : (string * (F.vc * vc_slot) list) list;
          (* each VC-eligible target's equivalence VCs *)
      proves : (string * F.vc) list;
          (* the keys this step looks up first, and their VCs *)
    }

(* One farm job: a cache-missing equivalence VC, one target name's
   closure test and oracle over some steps in step order — so the run
   memo's hits from one step's after-program on the next step's
   before-program stay on one domain — or the check of one step's claim.
   Only an entry-point target is closure-tested (a changed subprogram's
   own declaration differs), and a target a claim covers is not sampled:
   the claim decides it or, when the claim fails, the replay samples it. *)
type job =
  | Prove of { step : int; key : string; vc : F.vc }
  | Oracle of { name : string; steps : (int * step * target_run) list }
  | Claim of { step : int; sp : step; claim : Transform.claim }

(* what an oracle job does for one target of one step *)
and target_run =
  | Test_closure_then_sample  (* an entry point *)
  | Test_closure  (* an entry point the step's claim covers *)
  | Sample  (* a changed subprogram: its own declaration differs *)
  | Leave  (* a changed subprogram the step's claim covers *)

(* how one target of one step fared in its oracle job *)
type route =
  | Closure  (* same closure, both versions initialise *)
  | Claimed  (* left to the step's claim *)
  | Ran of Equivalence.verdict

type job_result =
  | Proof of P.proof_result
  | Runs of (int * route * float) list  (* step, route, seconds *)
  | Checked of (unit, string) result

(* rough costs, for the dispatch order only: an oracle chain weighs 4000
   per step (a few ms each on AES), as does a claim check, a VC its
   formula's node count *)
let job_cost = function
  | Prove { vc; _ } -> F.node_count (F.vc_formula vc)
  | Oracle { steps; _ } -> 4000 * List.length steps
  | Claim _ -> 4000

let run_oracle ?parent cfg (step : step) name =
  Telemetry.with_span ~cat:Telemetry.cat_transform ?parent
    ~attrs:[ ("step", Telemetry.S step.sp_name); ("target", Telemetry.S name) ]
    "oracle"
    (fun () ->
      Equivalence.oracle ~seed:cfg.cf_seed ~trials:cfg.cf_trials ~fuel:cfg.cf_fuel
        step.sp_before step.sp_after name)

let run_job cfg = function
  | Prove { vc; _ } -> Proof (P.prove_vc ~hints:P.standard_hints vc)
  | Oracle { name; steps } ->
      Runs
        (List.map
           (fun (i, step, run) ->
             let t0 = Logic.Clock.now () in
             let closure () =
               Equivalence.same_closure ~fuel:cfg.cf_fuel step.sp_before step.sp_after name
             in
             let route =
               match run with
               | (Test_closure_then_sample | Test_closure) when closure () -> Closure
               | Test_closure | Leave -> Claimed
               | Test_closure_then_sample | Sample -> Ran (run_oracle cfg step name)
             in
             (i, route, Logic.Clock.elapsed t0))
           steps)
  | Claim { sp; claim; _ } ->
      Checked
        (Telemetry.with_span ~cat:Telemetry.cat_transform
           ~attrs:[ ("step", Telemetry.S sp.sp_name) ]
           "check-claim"
           (fun () -> check_claim cfg sp claim))

(* the targets of one step, and its VC-eligible targets' VCs *)
let plan_step cfg (step : step) =
  let _, prog_a = step.sp_before and _, prog_b = step.sp_after in
  let changed, escalate = diff step.sp_before step.sp_after in
  let entry_targets =
    if escalate then
      List.filter_map
        (fun e ->
          if List.exists (fun t -> t.tg_name = e) changed then None
          else
            match (Ast.find_sub prog_a e, Ast.find_sub prog_b e) with
            | Some _, Some _ -> Some { tg_name = e; tg_vc_ok = false; tg_entry = true }
            | _ -> None)
        cfg.cf_entries
    else []
  in
  let targets = changed @ entry_targets in
  if targets = [] && not escalate then `Settled (Certified [ ("*", M_identical) ])
  else if targets = [] then
    `Settled
      (Unknown
         "the program shape changed and no behavioural entry points are configured")
  else
    `Targets
      ( targets,
        List.filter_map
          (fun t ->
            if not t.tg_vc_ok then None
            else
              match
                Vcgen.equivalence_sub ~budget:cfg.cf_budget ~before:step.sp_before
                  ~after:step.sp_after t.tg_name
              with
              | [] -> None
              | vcs -> Some (t.tg_name, vcs)
              | exception Vcgen.Infeasible _ -> None)
          targets )

(* Replay one step's sequential decision over the farm's outcomes:
   equivalence VCs first, then per residual target in order closure
   identity, the step's claim ([claimed name] is its method when the
   claim holds and covers the target) and the oracle, falling back to the
   entry points; [closure name] says whether a target's closure test
   held, and [sample name] is the step's oracle outcome for a target.
   Timing fields are left to the caller. *)
let decide_step cfg ~proof ~closure ~claimed ~sample (step : step) plan :
    certificate * stats =
  match plan with
  | Settled cert -> (cert, { zero_stats with ct_steps = 1 })
  | Run { targets; batches; _ } ->
      let _, prog_a = step.sp_before and _, prog_b = step.sp_after in
      let stats =
        ref { zero_stats with ct_steps = 1; ct_targets = List.length targets }
      in
      let bump f = stats := f !stats in
      let all = List.concat_map snd batches in
      let proved = function
        | Cached ok -> ok
        | Job { key; _ } -> P.is_proved (proof key)
      in
      let hit = function
        | Cached _ -> true
        | Job { key; first } ->
            (not first) && cfg.cf_cache <> None && cache_entry (proof key) <> None
      in
      let count p = List.length (List.filter (fun (_, s) -> p s) all) in
      bump (fun s ->
          { s with
            ct_vcs_generated = List.length all;
            ct_vcs_proved = count proved;
            ct_cache_hits = count hit;
            ct_cache_misses = count (fun s -> not (hit s)) });
      let tbl = List.map (fun ((vc : F.vc), s) -> (vc.F.vc_name, proved s)) all in
      let vc_certified =
        List.filter_map
          (fun (name, vcs) ->
            let ok =
              List.for_all
                (fun ((vc : F.vc), _) ->
                  Option.value ~default:false (List.assoc_opt vc.F.vc_name tbl))
                vcs
            in
            if ok then Some (name, M_vc (List.length vcs)) else None)
          batches
      in
      (* dynamic side for everything not statically certified *)
      let residual =
        List.filter (fun t -> not (List.mem_assoc t.tg_name vc_certified)) targets
      in
      let add_trials trials =
        bump (fun s -> { s with ct_oracle_trials = s.ct_oracle_trials + trials })
      in
      let entries_fallback =
        (* differential run of the configured entry points, once per step *)
        lazy
          (match
             List.filter
               (fun e ->
                 Ast.find_sub prog_a e <> None && Ast.find_sub prog_b e <> None)
               cfg.cf_entries
           with
          | [] -> `None
          | usable ->
              let rec go total = function
                | [] -> `Agree total
                | e :: rest when closure e -> go total rest
                | e :: rest -> (
                    match sample e with
                    | Equivalence.Agree { trials; _ } ->
                        add_trials trials;
                        go (total + trials) rest
                    | Equivalence.Refuted cx -> `Refuted cx
                    | Equivalence.Undecided why -> `Unknown why)
              in
              go 0 usable)
      in
      let rec decide acc = function
        | [] -> Certified (vc_certified @ List.rev acc)
        | t :: rest when closure t.tg_name -> decide ((t.tg_name, M_closure) :: acc) rest
        | t :: rest -> (
            match claimed t.tg_name with
            | Some m -> decide ((t.tg_name, m) :: acc) rest
            | None -> sampled acc t rest)
      and sampled acc t rest =
        match sample t.tg_name with
        | Equivalence.Agree { trials; exhaustive } ->
            add_trials trials;
            decide ((t.tg_name, M_oracle { trials; exhaustive }) :: acc) rest
        | Equivalence.Refuted cx -> Refuted cx
        | Equivalence.Undecided why -> (
            (* locally undecidable: fall back to the entry points *)
            match Lazy.force entries_fallback with
            | `Agree trials ->
                decide ((t.tg_name, M_entries { trials }) :: acc) rest
            | `Refuted cx -> Refuted cx
            | `Unknown why' ->
                Unknown (Printf.sprintf "%s; entry fallback: %s" why why')
            | `None -> Unknown why)
      in
      (* bind before building the pair: tuple components evaluate
         right-to-left, which would read [stats] before [decide] bumps it *)
      let cert = decide [] residual in
      (match cert with
      | Certified ms ->
          let d = List.length (List.filter (fun (_, m) -> decided m) ms) in
          bump (fun s -> { s with ct_decided = d; ct_sampled = List.length ms - d })
      | Refuted _ | Unknown _ -> ());
      (cert, !stats)

type session = {
  se_cfg : config;
  se_span : int option;  (* the [certify] span, when opened by [start] *)
  se_pool :
    (job, job_result * float * (string * Memo.stats) list) Farm.Pool.t;
  mutable se_planned : (step * plan) list;  (* newest first *)
  se_first : (string, int) Hashtbl.t;  (* cache key -> first step to look *)
  se_waiting : (int * step * plan) Queue.t;
      (* planned, no job submitted yet; always a suffix of the steps *)
  mutable se_jobs : job list;  (* submitted, newest first *)
  mutable se_memos : (string * Memo.stats) list list;  (* calling domain's *)
}

(* Above width 1 the certification runs beside the caller, under a span
   that does not nest the caller's own; at width 1 nothing runs before
   [finish], which opens it. *)
let start cfg =
  let span =
    if cfg.cf_jobs > 1 then
      Some (Telemetry.start_span ~cat:Telemetry.cat_transform ~detached:true "certify")
    else None
  in
  {
    se_cfg = cfg;
    se_span = span;
    se_pool =
      Farm.Pool.create ~jobs:cfg.cf_jobs ?parent:span ~priority:job_cost
        ~f:(fun job ->
          let t0 = Logic.Clock.now () in
          let r, memos =
            Memo.measure Equivalence.memo_readings (fun () -> run_job cfg job)
          in
          (r, Logic.Clock.elapsed t0, memos))
        ();
    se_planned = [];
    se_first = Hashtbl.create 16;
    se_waiting = Queue.create ();
    se_jobs = [];
    se_memos = [];
  }

(* Plan step [i] on the calling domain: the proof cache is not
   domain-safe, so every lookup happens here, in step order. *)
let plan se i step =
  let cfg = se.se_cfg in
  match plan_step cfg step with
  | `Settled cert -> Settled cert
  | `Targets (targets, batches) ->
      let proves = ref [] in
      let slot vc =
        let key = cache_key vc in
        match Option.bind cfg.cf_cache (fun c -> Farm.Cache.lookup c key) with
        | Some { Farm.Cache.en_status = Farm.Cache.E_auto | Farm.Cache.E_hinted _; _ } ->
            Cached true
        | Some { Farm.Cache.en_status = Farm.Cache.E_residual _; _ } -> Cached false
        | None -> (
            match Hashtbl.find_opt se.se_first key with
            | Some i' -> Job { key; first = i' = i }
            | None ->
                Hashtbl.replace se.se_first key i;
                proves := (key, vc) :: !proves;
                Job { key; first = true })
      in
      (* bind before building the record: its fields evaluate
         right-to-left, which would read [proves] before [slot] fills it *)
      let batches =
        List.map
          (fun (name, vcs) -> (name, List.map (fun vc -> (vc, slot vc)) vcs))
          batches
      in
      Run { targets; batches; proves = List.rev !proves }

(* Submit the jobs of some planned steps, in step order, as one batch:
   each VC a step looks up first, each step's claim, then every target's
   closure test and oracle, except a target the cache already proves.
   Above width 1 one job per target name keeps the run memo's cross-step
   hits on one domain.  At width 1
   nothing is split, and one job per step and target, in step order,
   also keeps the interpreter's few-program cache warm, as step-by-step
   certification does. *)
let submit se waiting =
  let group i name = ((if se.se_cfg.cf_jobs > 1 then -1 else i), name) in
  let proves = ref [] and claims = ref [] in
  let oracle_steps = Hashtbl.create 64 and names = ref [] in
  List.iter
    (fun (i, step, plan) ->
      match plan with
      | Settled _ -> ()
      | Run { targets; batches; proves = ps } ->
          List.iter
            (fun (key, vc) -> proves := Prove { step = i; key; vc } :: !proves)
            ps;
          let claimed name =
            match step.sp_claim with Some c -> claim_covers c name | None -> false
          in
          (match step.sp_claim with
          | Some claim when List.exists (fun t -> claimed t.tg_name) targets ->
              claims := Claim { step = i; sp = step; claim } :: !claims
          | _ -> ());
          List.iter
            (fun t ->
              let cached =
                match List.assoc_opt t.tg_name batches with
                | Some vcs -> List.for_all (fun (_, s) -> s = Cached true) vcs
                | None -> false
              in
              if not cached then
                let run =
                  match (t.tg_entry, claimed t.tg_name) with
                  | true, false -> Test_closure_then_sample
                  | true, true -> Test_closure
                  | false, false -> Sample
                  | false, true -> Leave
                in
                let key = group i t.tg_name and run = (i, step, run) in
                match Hashtbl.find_opt oracle_steps key with
                | Some idx -> idx := run :: !idx
                | None ->
                    Hashtbl.add oracle_steps key (ref [ run ]);
                    names := key :: !names)
            targets)
    waiting;
  let jobs =
    List.rev !proves @ List.rev !claims
    @ List.rev_map
        (fun ((_, name) as key) ->
          Oracle { name; steps = List.rev !(Hashtbl.find oracle_steps key) })
        !names
  in
  se.se_jobs <- List.rev_append jobs se.se_jobs;
  Farm.Pool.submit se.se_pool (Array.of_list jobs)

let add se step =
  let i = List.length se.se_planned in
  let p, memos = Memo.measure Equivalence.memo_readings (fun () -> plan se i step) in
  se.se_memos <- memos :: se.se_memos;
  se.se_planned <- (step, p) :: se.se_planned;
  Queue.push (i, step, p) se.se_waiting;
  (* While the caller goes on, the helpers take whole steps in order, fed
     one at a time whenever they have nothing queued.  Steps left waiting
     go to [finish], which chains them per target.  At width 1 nothing
     runs before [finish]. *)
  if se.se_cfg.cf_jobs > 1 then
    while (not (Queue.is_empty se.se_waiting)) && Farm.Pool.backlog se.se_pool = 0 do
      submit se [ Queue.pop se.se_waiting ]
    done

(* [finish] after the caller's own work: the tail, the cache, the replay *)
let finish_tail se =
  let cfg = se.se_cfg in
  let t_tail = Logic.Clock.now () in
  submit se (List.of_seq (Queue.to_seq se.se_waiting));
  Queue.clear se.se_waiting;
  (* each job measured the memos of the domain it ran on *)
  let results, _ = Farm.Pool.close se.se_pool in
  let jobs = Array.of_list (List.rev se.se_jobs) in
  let planned = Array.of_list (List.rev se.se_planned) in
  (* busy seconds per step (a proof counts for the step that first looked
     its key up), proofs by key, oracle outcomes by step and target, and
     the cache adds — in step order, as the streamed steps are a prefix *)
  let n = Array.length planned in
  let vc_busy = Array.make n 0.0 and oracle_busy = Array.make n 0.0 in
  let proofs = Hashtbl.create 16 and ran = Hashtbl.create 256 in
  let claims = Hashtbl.create 16 in
  Array.iteri
    (fun j job ->
      match (job, results.(j)) with
      | Prove { step; key; _ }, (Proof r, secs, _) ->
          vc_busy.(step) <- vc_busy.(step) +. secs;
          Hashtbl.replace proofs key r;
          Option.iter
            (fun cache ->
              Option.iter
                (fun en_status ->
                  Farm.Cache.add cache key
                    { Farm.Cache.en_status; en_attempts = 1; en_time = r.P.pr_time })
                (cache_entry r))
            cfg.cf_cache
      | Oracle { name; _ }, (Runs rs, _, _) ->
          List.iter
            (fun (i, o, secs) ->
              Hashtbl.replace ran (i, name) o;
              oracle_busy.(i) <- oracle_busy.(i) +. secs)
            rs
      | Claim { step; _ }, (Checked r, secs, _) ->
          Hashtbl.replace claims step r;
          oracle_busy.(step) <- oracle_busy.(step) +. secs
      | (Prove _ | Oracle _ | Claim _), _ -> assert false)
    jobs;
  (match cfg.cf_cache with
  | Some cache when Array.exists (function Prove _ -> true | Oracle _ | Claim _ -> false) jobs
    -> (
      match Farm.Cache.save cache with
      | Ok () -> ()
      | Error why ->
          Telemetry.instant "certify_cache_save_failed"
            ~attrs:[ ("error", Telemetry.S why) ])
  | _ -> ());
  (* replay each step's sequential decision; an outcome the farm did not
     precompute (an entry-point fallback, a target whose claim failed)
     runs here *)
  let proof key = Hashtbl.find proofs key in
  let decided, replay_memos =
    Memo.measure Equivalence.memo_readings @@ fun () ->
    Array.to_list
      (Array.mapi
         (fun i (step, plan) ->
           let closure name = Hashtbl.find_opt ran (i, name) = Some Closure in
           let claimed name =
             match (step.sp_claim, Hashtbl.find_opt claims i) with
             | Some c, Some (Ok ()) when claim_covers c name -> Some (claim_method c)
             | _ -> None
           in
           let sample name =
             match Hashtbl.find_opt ran (i, name) with
             | Some (Ran o) -> o
             | Some (Closure | Claimed) | None ->
                 let t0 = Logic.Clock.now () in
                 let o = run_oracle ?parent:se.se_span cfg step name in
                 oracle_busy.(i) <- oracle_busy.(i) +. Logic.Clock.elapsed t0;
                 Hashtbl.replace ran (i, name) (Ran o);
                 o
           in
           decide_step cfg ~proof ~closure ~claimed ~sample step plan)
         planned)
  in
  if Telemetry.enabled () then
    Telemetry.count_memos
      (Memo.sum
         (replay_memos :: se.se_memos
         @ Array.to_list (Array.map (fun (_, _, m) -> m) results)));
  (* Timing is the wall time certification adds after the caller's own
     work: the jobs still running or queued, the cache writes and the
     replay took [wall], shared out over the steps in proportion to their
     busy seconds, so the timing fields sum to [wall] at any width *)
  let wall = Logic.Clock.elapsed t_tail in
  let sum = Array.fold_left ( +. ) 0.0 in
  let total = sum vc_busy +. sum oracle_busy in
  let scale = if total > 0.0 then wall /. total else 0.0 in
  List.mapi
    (fun i (cert, stats) ->
      ( cert,
        { stats with
          ct_vc_seconds = vc_busy.(i) *. scale;
          ct_oracle_seconds = oracle_busy.(i) *. scale } ))
    decided

let finish se =
  let attrs = [ ("steps", Telemetry.I (List.length se.se_planned)) ] in
  match se.se_span with
  | Some span ->
      Fun.protect ~finally:(fun () -> Telemetry.finish_span ~attrs span) (fun () ->
          finish_tail se)
  | None ->
      Telemetry.with_span ~cat:Telemetry.cat_transform ~attrs "certify" (fun () ->
          finish_tail se)

let certify_steps cfg (steps : step list) : (certificate * stats) list =
  let se = start cfg in
  match List.iter (add se) steps with
  | () -> finish se
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (finish se);
      Printexc.raise_with_backtrace e bt

let certify cfg ~step_name ~before ~after : certificate * stats =
  match
    certify_steps cfg
      [ { sp_name = step_name; sp_before = before; sp_after = after; sp_claim = None } ]
  with
  | [ r ] -> r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Audits and JSON                                                     *)
(* ------------------------------------------------------------------ *)

type audit = {
  au_steps : int;
  au_certified : int;
  au_refuted : int;
  au_unknown : int;
}

let audit (certs : (int * string * certificate) list) : audit =
  List.fold_left
    (fun a (_, _, c) ->
      match c with
      | Certified _ -> { a with au_steps = a.au_steps + 1; au_certified = a.au_certified + 1 }
      | Refuted _ -> { a with au_steps = a.au_steps + 1; au_refuted = a.au_refuted + 1 }
      | Unknown _ -> { a with au_steps = a.au_steps + 1; au_unknown = a.au_unknown + 1 })
    { au_steps = 0; au_certified = 0; au_refuted = 0; au_unknown = 0 }
    certs

module J = Telemetry.Json

let certificate_to_json = function
  | Certified ms ->
      J.Obj
        [ ("status", J.String "certified");
          ( "evidence",
            J.List
              (List.map
                 (fun (s, m) ->
                   J.Obj
                     [ ("target", J.String s);
                       ("method", J.String (method_to_string m)) ])
                 ms) ) ]
  | Refuted cx ->
      J.Obj
        [ ("status", J.String "refuted");
          ( "counterexample",
            J.Obj
              [ ("sub", J.String cx.cx_sub);
                ("inputs", J.String cx.cx_inputs);
                ("before", J.String cx.cx_before);
                ("after", J.String cx.cx_after) ] ) ]
  | Unknown why ->
      J.Obj [ ("status", J.String "unknown"); ("reason", J.String why) ]

let stats_to_json s =
  J.Obj
    [ ("steps", J.Int s.ct_steps);
      ("targets", J.Int s.ct_targets);
      ("vcs_generated", J.Int s.ct_vcs_generated);
      ("vcs_proved", J.Int s.ct_vcs_proved);
      ("cache_hits", J.Int s.ct_cache_hits);
      ("cache_misses", J.Int s.ct_cache_misses);
      ("oracle_trials", J.Int s.ct_oracle_trials);
      ("decided", J.Int s.ct_decided);
      ("sampled", J.Int s.ct_sampled);
      ("vc_seconds", J.Float s.ct_vc_seconds);
      ("oracle_seconds", J.Float s.ct_oracle_seconds) ]
