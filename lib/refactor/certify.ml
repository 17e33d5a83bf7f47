(* Per-step certification of refactoring transformations.

   Every applied transformation must carry evidence that it preserved
   semantics.  The decision procedure, per touched subprogram:

   1. [M_identical] — the two versions differ only in annotations
      (asserts, invariants, contracts), which the interpreter does not
      execute: nothing to prove.
   2. [M_closure] — everything a run of an entry-point target can
      observe is the same in both versions, which both initialise
      ({!Equivalence.same_closure}).
   3. [M_scheme] / [M_reused] — the step's claim ({!Transform.claim}),
      checked against the step's own pair: a table reversal replayed
      under its scheme's side-conditions ({!Table_reverse.check_scheme}),
      a split or clone extraction inlined back under its scheme's
      ({!Extraction.check_scheme}), a renaming renamed back
      ({!Storage_adjust.check_renaming}), or the transformation's own
      oracle verdict, reused when it was reached on these two programs
      with at least [cf_trials] trials under [cf_fuel].
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
   silently dropped.

   A step's whole decision, its diff included, is one {!Farm.Pool} job,
   so a certificate is computed from its own step alone. *)

open Minispark

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
  | M_reused of { trials : int; exhaustive : bool }
  | M_oracle of { trials : int; exhaustive : bool }
  | M_entries of { trials : int }

let oracle_to_string trials exhaustive =
  Printf.sprintf "oracle:%d%s" trials (if exhaustive then ":exhaustive" else "")

let method_to_string = function
  | M_identical -> "identical"
  | M_closure -> "closure"
  | M_scheme s -> "scheme:" ^ s
  | M_reused { trials; exhaustive } -> "reused:" ^ oracle_to_string trials exhaustive
  | M_oracle { trials; exhaustive } -> oracle_to_string trials exhaustive
  | M_entries { trials } -> Printf.sprintf "entries:%d" trials

let decided = function
  | M_identical | M_closure | M_scheme _ -> true
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
  cf_jobs : int;          (** farm width, one job per step *)
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
    cf_entries = entries;
  }

type stats = {
  ct_steps : int;
  ct_targets : int;
  ct_vcs_generated : int;  (* always 0, kept for perfbench *)
  ct_oracle_trials : int;
  ct_decided : int;
  ct_sampled : int;
  ct_vc_seconds : float;  (* always 0.0, kept for perfbench *)
  ct_oracle_seconds : float;
}

let zero_stats =
  {
    ct_steps = 0;
    ct_targets = 0;
    ct_vcs_generated = 0;
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
            let ((ia, _, _, _) as a) = sub_semantics env_a sa in
            let ((ib, _, _, _) as b) = sub_semantics env_b sb in
            if a = b then (changed, incomp)
            else if ia = ib then
              ({ tg_name = sb.Ast.sub_name; tg_entry = false } :: changed, incomp)
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
(* The decision procedure: one farm job per step                      *)
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

let run_oracle cfg (step : step) name =
  Telemetry.with_span ~cat:Telemetry.cat_transform
    ~attrs:[ ("step", Telemetry.S step.sp_name); ("target", Telemetry.S name) ]
    "oracle"
    (fun () ->
      Equivalence.oracle ~seed:cfg.cf_seed ~trials:cfg.cf_trials ~fuel:cfg.cf_fuel
        step.sp_before step.sp_after name)

(* [f] applied at most once per argument *)
let once f =
  let tbl = Hashtbl.create 8 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        let v = f k in
        Hashtbl.add tbl k v;
        v

(* the targets of one step *)
let targets_of cfg (step : step) =
  let _, prog_a = step.sp_before and _, prog_b = step.sp_after in
  let changed, escalate = diff step.sp_before step.sp_after in
  let entry_targets =
    if escalate then
      List.filter_map
        (fun e ->
          if List.exists (fun t -> t.tg_name = e) changed then None
          else
            match (Ast.find_sub prog_a e, Ast.find_sub prog_b e) with
            | Some _, Some _ -> Some { tg_name = e; tg_entry = true }
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
  else `Targets targets

(* Each target in order by closure identity (an entry-point target only:
   a changed subprogram's own declaration differs), the step's claim
   (checked at most once) or the oracle, falling back to the entry
   points. *)
let decide_targets cfg (step : step) targets =
  let _, prog_a = step.sp_before and _, prog_b = step.sp_after in
  let stats =
    ref { zero_stats with ct_steps = 1; ct_targets = List.length targets }
  in
  let bump f = stats := f !stats in
  let closure =
    once (fun name ->
        List.exists (fun t -> t.tg_entry && t.tg_name = name) targets
        && Equivalence.same_closure ~fuel:cfg.cf_fuel step.sp_before step.sp_after
             name)
  in
  let claim_holds =
    lazy
      (match step.sp_claim with
      | None -> false
      | Some claim ->
          Telemetry.with_span ~cat:Telemetry.cat_transform
            ~attrs:[ ("step", Telemetry.S step.sp_name) ]
            "check-claim"
            (fun () -> check_claim cfg step claim = Ok ()))
  in
  let claimed name =
    match step.sp_claim with
    | Some c when claim_covers c name && Lazy.force claim_holds -> Some (claim_method c)
    | _ -> None
  in
  let sample = once (run_oracle cfg step) in
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
    | [] -> Certified (List.rev acc)
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
  let cert = decide [] targets in
  (match cert with
  | Certified ms ->
      let d = List.length (List.filter (fun (_, m) -> decided m) ms) in
      bump (fun s -> { s with ct_decided = d; ct_sampled = List.length ms - d })
  | Refuted _ | Unknown _ -> ());
  (cert, !stats)

(* what one step's job hands back: the certificate, the stats and the
   busy seconds deciding it *)
type outcome = { oc_cert : certificate; oc_stats : stats; oc_busy : float }

(* one step's whole decision, run as one farm job *)
let decide_step cfg step =
  let t0 = Logic.Clock.now () in
  let cert, stats =
    match targets_of cfg step with
    | `Settled cert -> (cert, { zero_stats with ct_steps = 1 })
    | `Targets targets -> decide_targets cfg step targets
  in
  { oc_cert = cert; oc_stats = stats; oc_busy = Logic.Clock.elapsed t0 }

type session = {
  se_span : int option;  (* the [certify] span, when opened by [start] *)
  se_pool : (step, outcome * (string * Memo.stats) list) Farm.Pool.t;
  mutable se_steps : int;
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
    se_span = span;
    se_pool =
      Farm.Pool.create ~jobs:cfg.cf_jobs ?parent:span
        ~priority:(fun _ -> 0)
        ~f:(fun step ->
          Memo.measure Equivalence.memo_readings (fun () -> decide_step cfg step))
        ();
    se_steps = 0;
  }

let add se step =
  se.se_steps <- se.se_steps + 1;
  Farm.Pool.submit se.se_pool [| step |]

(* [finish] after the caller's own work: the tail *)
let finish_tail se =
  let t_tail = Logic.Clock.now () in
  (* each job measured the memos of the domain it ran on *)
  let results, _ = Farm.Pool.close se.se_pool in
  let outcomes = Array.to_list (Array.map fst results) in
  if Telemetry.enabled () then
    Telemetry.count_memos (Memo.sum (Array.to_list (Array.map snd results)));
  (* Timing is the wall time certification adds after the caller's own
     work: the jobs still running or queued took [wall], shared out over
     the steps in proportion to their busy seconds, so the steps'
     [ct_oracle_seconds] sum to [wall] at any width *)
  let wall = Logic.Clock.elapsed t_tail in
  let total = List.fold_left (fun acc o -> acc +. o.oc_busy) 0.0 outcomes in
  let scale = if total > 0.0 then wall /. total else 0.0 in
  List.map
    (fun o -> (o.oc_cert, { o.oc_stats with ct_oracle_seconds = o.oc_busy *. scale }))
    outcomes

let finish se =
  let attrs = [ ("steps", Telemetry.I se.se_steps) ] in
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
      ("oracle_trials", J.Int s.ct_oracle_trials);
      ("decided", J.Int s.ct_decided);
      ("sampled", J.Int s.ct_sampled);
      ("vc_seconds", J.Float s.ct_vc_seconds);
      ("oracle_seconds", J.Float s.ct_oracle_seconds) ]
