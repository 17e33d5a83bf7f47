(* The implementation proof (§6.2.3): the annotated program is shown to
   conform to its annotations using the VC generator and the automatic
   prover — the stand-in for the SPARK Ada toolset run.

   Accounting mirrors the paper: total VCs, the fraction discharged
   automatically, the subprograms whose VCs all discharge automatically,
   and the VCs needing interactive steps (application of preconditions /
   induction on loop invariants = the prover's hint capabilities).  VCs
   that resist both are "interactive residue": they are cross-validated by
   ground evaluation on sampled assignments and reported separately.

   Every VC now goes through a {!Retry} ladder; [run] uses the legacy
   two-rung ladder (automatic, hinted) so historical accounting is
   unchanged, while [run_resilient] adds the simplify-then-retry rung,
   per-VC deadlines and hook points for the orchestrator and the chaos
   harness.

   Proof farm: with [?jobs] > 1 the VCs are dispatched cost-descending
   over a work-stealing domain pool ({!Farm.Pool}); with [?cache] a
   persistent content-addressed store ({!Farm.Cache}) is consulted
   before any prover work, keyed by the VC's canonical formula digest
   plus a signature of everything else that can change provability —
   the retry policy's rungs and hints, the prover knobs, and the
   definitions of the program functions the prover ground-evaluates.
   Cache lookups and recording happen on the coordinator domain only,
   and results are reassembled in generation order, so verdicts are
   bit-identical whatever the job count or cache temperature. *)

open Minispark
module F = Logic.Formula
module P = Logic.Prover

type vc_status =
  | Auto                 (** discharged with no interaction *)
  | Hinted of int        (** discharged after n interactive steps *)
  | Residual of string   (** not discharged mechanically *)
  | Timed_out of float   (** every ladder rung hit its deadline *)
  | Discharged           (** proved by static analysis; never scheduled *)

type vc_result = {
  vr_vc : F.vc;
  vr_status : vc_status;
  vr_attempts : int;     (** ladder attempts spent on this VC *)
  vr_time : float;
  vr_cached : bool;      (** replayed from the proof cache, prover skipped *)
}

type sub_stats = {
  ss_name : string;
  ss_total : int;
  ss_auto : int;
  ss_hinted : int;
  ss_residual : int;
  ss_timed_out : int;
  ss_discharged : int;   (** statically discharged, never sent to prover *)
}

type report = {
  ip_results : vc_result list;
  ip_subs : sub_stats list;
  ip_total : int;
  ip_auto : int;
  ip_hinted : int;
  ip_residual : int;
  ip_timed_out : int;
  ip_discharged : int;   (** statically discharged, never sent to prover *)
  ip_attempts : int;     (** ladder attempts across all VCs *)
  ip_cache_hits : int;   (** VCs replayed from the proof cache *)
  ip_cache_misses : int; (** VCs sent to the prover despite an open cache *)
  ip_carried : int;      (** baseline verdicts carried over by impact
                             analysis; never re-proved *)
  ip_generated_nodes : int;
  ip_time : float;
  ip_infeasible : string option;
}

let empty =
  {
    ip_results = [];
    ip_subs = [];
    ip_total = 0;
    ip_auto = 0;
    ip_hinted = 0;
    ip_residual = 0;
    ip_timed_out = 0;
    ip_discharged = 0;
    ip_attempts = 0;
    ip_cache_hits = 0;
    ip_cache_misses = 0;
    ip_carried = 0;
    ip_generated_nodes = 0;
    ip_time = 0.0;
    ip_infeasible = None;
  }

let auto_fraction r =
  if r.ip_total = 0 then 1.0
  else float_of_int (r.ip_auto + r.ip_discharged) /. float_of_int r.ip_total

let fully_auto_subs r =
  List.filter (fun s -> s.ss_auto + s.ss_discharged = s.ss_total) r.ip_subs
  |> List.length

(* ground-evaluation interpretation of program functions for the prover;
   each evaluation gets its own runtime (a copy of the cached globals), so
   farm workers share no interpreter state and no evaluation's fuel
   depends on which VCs ran before it *)
let interp_of env program name args =
  match Ast.find_sub program name with
  | Some { Ast.sub_return = Some _; _ } -> (
      match
        Interp.run_function (Interp.make env program) name
          (List.map (fun n -> Value.Vint n) args)
      with
      | Value.Vint n | Value.Vmod (n, _) -> Some n
      | Value.Vbool b -> Some (if b then 1 else 0)
      | Value.Varray _ -> None
      | exception (Interp.Stuck _ | Interp.Out_of_fuel | Value.Runtime_error _)
        ->
          None)
  | _ -> None

let standard_hints = P.standard_hints

(* ------------------------------------------------------------------ *)
(* Proof-cache keys                                                    *)
(* ------------------------------------------------------------------ *)

let hint_sig = function
  | P.Hint_apply_hyp -> "apply_hyp"
  | P.Hint_induction -> "induction"
  | P.Hint_unfold (n, formals, body) ->
      Printf.sprintf "unfold:%s(%s)=%s" n (String.concat "," formals)
        (F.digest body)

(* Signature of everything besides the VC formula and the program text
   that can change a proof outcome: the retry ladder (rungs, hints, fuel)
   and the prover's search knobs.  The per-VC deadline is deliberately
   excluded: a recorded proof stays a proof under any deadline, and
   timeouts are never cached.  The "pf3" marker versions the key scheme,
   so entries recorded under earlier schemes (the whole-program
   signature, then "pf2"'s printed-text frontier signature) can never
   collide with the declaration-digest keys below. *)
let base_signature ~(policy : Retry.policy) ~(cfg : P.config) =
  let buf = Buffer.create 512 in
  Printf.ksprintf (Buffer.add_string buf) "pf3;split=%d;steps=%d;"
    cfg.P.max_split cfg.P.max_steps;
  List.iter
    (fun (rg : Retry.rung) ->
      Printf.ksprintf (Buffer.add_string buf) "rung=%s,%b,%d[%s];"
        rg.Retry.rg_name rg.Retry.rg_presimplify rg.Retry.rg_fuel_factor
        (String.concat "," (List.map hint_sig rg.Retry.rg_hints)))
    policy.Retry.pol_rungs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Per-subprogram program signature: because [cfg.interp] ground-evaluates
   program functions, a VC's outcome depends on the definitions on its
   owner's evaluation frontier ({!Analysis.Depgraph.eval_deps} — the
   bodies the interpreter may execute, transitively) and on the constants,
   globals and named types those texts reference (the interpreter's
   environment).  Scoping the signature to that frontier instead of the
   whole program is what makes incremental re-verification pay: editing
   one procedure leaves every unrelated subprogram's keys untouched, so
   their proofs still hit the cache.  Each definition enters as its
   {!Share.decl_digest}, which is memoized per declaration, so nothing is
   printed.  Earlier key schemes hashed every function program-wide — one
   edit anywhere invalidated the entire store — and silently omitted
   constants and globals, which the evaluator also reads. *)
let sub_signature program =
  let graph = lazy (Analysis.Depgraph.build program) in
  let memo = Hashtbl.create 16 in
  let decls = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.add decls (Ast.decl_name d) d)
    (List.rev program.Ast.prog_decls);
  (* the first declaration of [name] of the given kind, in program
     order: the one the evaluator resolves *)
  let kind = function
    | Ast.Dtype _ -> `Type | Ast.Dconst _ -> `Const | Ast.Dvar _ -> `Var | Ast.Dsub _ -> `Sub
  in
  let digest_of k name =
    List.find_map
      (fun d -> if kind d = k then Some (Share.decl_digest d) else None)
      (Hashtbl.find_all decls name)
  in
  fun sub_name ->
    match Hashtbl.find_opt memo sub_name with
    | Some s -> s
    | None ->
        let g = Lazy.force graph in
        let buf = Buffer.create 512 in
        List.iter
          (fun d ->
            Option.iter
              (Printf.ksprintf (Buffer.add_string buf) "fn=%s:%s;" d)
              (digest_of `Sub d))
          (Analysis.Depgraph.eval_deps g sub_name);
        List.iter
          (fun d ->
            Printf.ksprintf (Buffer.add_string buf) "decl=%s:%s;" d
              (match
                 List.find_map (fun k -> digest_of k d) [ `Type; `Const; `Var ]
               with
              | Some digest -> digest
              | None -> "-"))
          (Analysis.Depgraph.decl_closure g
             (sub_name :: Analysis.Depgraph.eval_deps g sub_name));
        let s = Digest.to_hex (Digest.string (Buffer.contents buf)) in
        Hashtbl.add memo sub_name s;
        s

let status_of_entry (e : Farm.Cache.entry) : vc_status =
  match e.Farm.Cache.en_status with
  | Farm.Cache.E_auto -> Auto
  | Farm.Cache.E_hinted n -> Hinted n
  | Farm.Cache.E_residual r -> Residual r

let entry_of_result vr : Farm.Cache.entry option =
  let status =
    match vr.vr_status with
    | Auto -> Some Farm.Cache.E_auto
    | Hinted n -> Some (Farm.Cache.E_hinted n)
    | Residual r -> Some (Farm.Cache.E_residual r)
    (* timeouts are wall-clock accidents, discharged VCs never ran *)
    | Timed_out _ | Discharged -> None
  in
  Option.map
    (fun st ->
      { Farm.Cache.en_status = st; en_attempts = vr.vr_attempts;
        en_time = vr.vr_time })
    status

let status_of (rt : Retry.result) : vc_status =
  match rt.Retry.rt_rung with
  | Some rung when rung.Retry.rg_hints = [] -> Auto
  | Some _ -> Hinted rt.Retry.rt_result.P.pr_hints_used
  | None -> (
      match rt.Retry.rt_result.P.pr_outcome with
      | P.Timeout s -> Timed_out s
      | P.Unknown reason -> Residual reason
      | P.Proved -> assert false)

let count_status_with cnt = function
  | Auto -> cnt "vcs_auto"
  | Hinted _ -> cnt "vcs_hinted"
  | Residual _ -> cnt "vcs_residual"
  | Timed_out _ -> cnt "vcs_timed_out"
  | Discharged -> ()

let count_status = count_status_with (fun n -> Telemetry.count n)

(* Shared core: VC generation, then the retry ladder over every VC —
   consulted against the proof cache and dispatched over the domain pool
   when [?cache] / [?jobs] ask for it.  [filter_vcs] is the
   orchestrator/chaos hook point. *)
let run_with ~(policy : Retry.policy) ?(filter_vcs = fun vcs -> vcs)
    ?(give_up = fun () -> false)
    ?discharge ?carry ?(budget = Vcgen.default_budget) ?(max_steps = 60_000)
    ?(jobs = 1) ?cache env program : report =
  let t0 = Logic.Clock.now () in
  let gen = Vcgen.generate ~budget env program in
  let gen =
    match discharge with
    | None -> gen
    | Some oracle -> Vcgen.tag_discharged ~oracle gen
  in
  let cfg =
    { P.default_config with P.interp = Some (interp_of env program); max_steps }
  in
  (* one prover ladder over one VC — runs on a worker domain under the
     farm, inline otherwise.  Workers share only immutable data: [cfg]'s
     ground-evaluation hook builds a fresh runtime per call from the
     calling domain's own compiled-program cache, and telemetry goes
     through per-worker batches *)
  let prove_one vc =
    (* the global budget ran out: charge the remaining VCs as timed out
       without starting their searches *)
    if give_up () then
      { vr_vc = vc; vr_status = Timed_out 0.0; vr_attempts = 0; vr_time = 0.0;
        vr_cached = false }
    else
      let t1 = Logic.Clock.now () in
      let span =
        Telemetry.start_span ~cat:Telemetry.cat_vc
          ~attrs:
            [
              ("sub", Telemetry.S vc.F.vc_sub);
              ("kind", Telemetry.S (F.vc_kind_name vc.F.vc_kind));
            ]
          vc.F.vc_name
      in
      let rt = Retry.prove ~policy ~cfg vc in
      let vr =
        {
          vr_vc = vc;
          vr_status = status_of rt;
          vr_attempts = Retry.attempts rt;
          vr_time = Logic.Clock.elapsed t1;
          vr_cached = false;
        }
      in
      (* batched: prove_one runs on worker domains, and per-VC mutex
         traffic on the shared collector serializes them — the pool
         flushes each worker's batch at span close, the coordinator's
         after the run *)
      if Telemetry.enabled () then begin
        Telemetry.Batch.count "vcs_attempted";
        count_status_with (fun n -> Telemetry.Batch.count n) vr.vr_status;
        Telemetry.Batch.observe "vc_wall_s" vr.vr_time
      end;
      Telemetry.finish_span span
        ~attrs:
          [
            ( "status",
              Telemetry.S
                (match vr.vr_status with
                | Auto -> "auto"
                | Hinted n -> Printf.sprintf "hinted:%d" n
                | Residual _ -> "residual"
                | Timed_out _ -> "timeout"
                | Discharged -> "discharged") );
            ("attempts", Telemetry.I vr.vr_attempts);
          ];
      vr
  in
  let all =
    List.concat_map
      (fun (sr : Vcgen.sub_report) ->
        List.map (fun vc -> (sr, vc)) (filter_vcs sr.Vcgen.sr_vcs))
      gen.Vcgen.r_subs
  in
  let base_sig = lazy (base_signature ~policy ~cfg) in
  let sub_sig = sub_signature program in
  let slots = Array.make (List.length all) None in
  let hits = ref 0 and misses = ref 0 and carried = ref 0 in
  (* coordinator-side pass: statically discharged VCs, impact-carried
     verdicts and cache hits are settled here; everything else becomes a
     farm job *)
  let pending = ref [] in
  List.iteri
    (fun i ((sr : Vcgen.sub_report), vc) ->
      if List.mem vc.F.vc_name sr.Vcgen.sr_discharged then begin
        if Telemetry.enabled () then Telemetry.count "an_vcs_discharged";
        slots.(i) <-
          Some
            { vr_vc = vc; vr_status = Discharged; vr_attempts = 0;
              vr_time = 0.0; vr_cached = false }
      end
      else
        match Option.bind carry (fun f -> f vc) with
        | Some (vr : vc_result) ->
            (* a baseline verdict certified still-valid by change-impact
               analysis: replayed like a cache hit, never re-proved *)
            incr carried;
            let status = vr.vr_status in
            if Telemetry.enabled () then begin
              Telemetry.count "carried_verdicts";
              count_status status
            end;
            slots.(i) <-
              Some { vr with vr_vc = vc; vr_time = 0.0; vr_cached = true }
        | None -> (
        match cache with
        | None -> pending := (i, sr, vc, None) :: !pending
        | Some c -> (
            let key =
              F.vc_digest vc ^ ":" ^ Lazy.force base_sig ^ ":"
              ^ sub_sig vc.F.vc_sub
            in
            match Farm.Cache.lookup c key with
            | Some e ->
                incr hits;
                let status = status_of_entry e in
                if Telemetry.enabled () then begin
                  Telemetry.count "cache_hits";
                  count_status status
                end;
                slots.(i) <-
                  Some
                    { vr_vc = vc; vr_status = status;
                      vr_attempts = e.Farm.Cache.en_attempts; vr_time = 0.0;
                      vr_cached = true }
            | None ->
                incr misses;
                if Telemetry.enabled () then Telemetry.count "cache_misses";
                pending := (i, sr, vc, Some key) :: !pending)))
    all;
  let pending = Array.of_list (List.rev !pending) in
  (* dispatch cost-descending: the VC generator's unfolded node count is
     the best available effort predictor *)
  let priority (_, (sr : Vcgen.sub_report), vc, _) =
    match List.assoc_opt vc.F.vc_name sr.Vcgen.sr_sizes with
    | Some n -> n
    | None ->
        List.fold_left
          (fun acc h -> acc + F.node_count h)
          (F.node_count vc.F.vc_goal) vc.F.vc_hyps
  in
  let proved, _stats =
    Farm.Pool.run ~jobs ~priority ~f:(fun (_, _, vc, _) -> prove_one vc) pending
  in
  (* the inline (jobs = 1) path proves on this domain without worker
     spans, so its batch drains here *)
  Telemetry.Batch.flush ();
  (* reassemble in generation order and record fresh proofs — cache
     writes stay on the coordinator, so the store needs no locking *)
  let added = ref 0 in
  Array.iteri
    (fun k vr ->
      let i, _, _, key = pending.(k) in
      (match (cache, key, entry_of_result vr) with
      | Some c, Some key, Some entry ->
          Farm.Cache.add c key entry;
          incr added
      | _ -> ());
      slots.(i) <- Some vr)
    proved;
  (* a run that recorded nothing leaves the index untouched *)
  (match cache with
  | Some c when !added > 0 -> (
      match Farm.Cache.save c with
      | Ok () -> ()
      | Error msg ->
          Telemetry.instant "cache_save_failed"
            ~attrs:[ ("error", Telemetry.S msg) ])
  | _ -> ());
  let results =
    Array.to_list slots
    |> List.map (function
         | Some vr -> vr
         | None -> invalid_arg "Implementation_proof: unfilled VC slot")
  in
  let subs =
    List.map
      (fun (sr : Vcgen.sub_report) ->
        let mine =
          List.filter (fun r -> String.equal r.vr_vc.F.vc_sub sr.Vcgen.sr_sub) results
        in
        let count p = List.length (List.filter p mine) in
        {
          ss_name = sr.Vcgen.sr_sub;
          ss_total = List.length mine;
          ss_auto = count (fun r -> r.vr_status = Auto);
          ss_hinted = count (fun r -> match r.vr_status with Hinted _ -> true | _ -> false);
          ss_residual = count (fun r -> match r.vr_status with Residual _ -> true | _ -> false);
          ss_timed_out = count (fun r -> match r.vr_status with Timed_out _ -> true | _ -> false);
          ss_discharged = count (fun r -> r.vr_status = Discharged);
        })
      gen.Vcgen.r_subs
  in
  let count p = List.length (List.filter p results) in
  {
    ip_results = results;
    ip_subs = subs;
    ip_total = List.length results;
    ip_auto = count (fun r -> r.vr_status = Auto);
    ip_hinted = count (fun r -> match r.vr_status with Hinted _ -> true | _ -> false);
    ip_residual = count (fun r -> match r.vr_status with Residual _ -> true | _ -> false);
    ip_timed_out = count (fun r -> match r.vr_status with Timed_out _ -> true | _ -> false);
    ip_discharged = count (fun r -> r.vr_status = Discharged);
    ip_attempts = List.fold_left (fun acc r -> acc + r.vr_attempts) 0 results;
    ip_cache_hits = !hits;
    ip_cache_misses = !misses;
    ip_carried = !carried;
    ip_generated_nodes = Vcgen.total_nodes gen;
    ip_time = Logic.Clock.elapsed t0;
    ip_infeasible = gen.Vcgen.r_infeasible;
  }

(** Run the implementation proof over an annotated, checked program. *)
let run ?discharge ?budget ?max_steps ?jobs ?cache env program : report =
  run_with ~policy:(Retry.legacy_policy standard_hints) ?discharge ?budget
    ?max_steps ?jobs ?cache env program

let run_resilient ?(policy = Retry.default_policy standard_hints) ?filter_vcs
    ?give_up ?discharge ?carry ?budget ?max_steps ?jobs ?cache env program :
    report =
  run_with ~policy ?filter_vcs ?give_up ?discharge ?carry ?budget
    ?max_steps ?jobs ?cache env program

(* ------------------------------------------------------------------ *)
(* Per-VC summaries: the wire form of a report                         *)
(* ------------------------------------------------------------------ *)

type vc_summary = {
  vs_name : string;
  vs_sub : string;
  vs_digest : string;
  vs_status : string;
  vs_attempts : int;
  vs_time : float;
  vs_cached : bool;
}

type baseline = {
  vb_program : string;
  vb_results : vc_summary list;
}

(* The machine-readable per-VC verdict that travels in checkpoints,
   benches and served baselines. *)
let status_string = function
  | Auto -> "auto"
  | Hinted n -> Printf.sprintf "hinted:%d" n
  | Residual r -> "residual:" ^ r
  | Timed_out _ -> "timed-out"
  | Discharged -> "discharged"

(* Inverse of [status_string], minus timeouts: a timeout is a wall-clock
   accident, not a property of the VC, so a baseline is never allowed to
   replay one (mirrors the proof cache's refusal to store them). *)
let parse_status = function
  | "auto" -> Some Auto
  | "discharged" -> Some Discharged
  | st when String.length st > 7 && String.sub st 0 7 = "hinted:" -> (
      match int_of_string_opt (String.sub st 7 (String.length st - 7)) with
      | Some n when n >= 0 -> Some (Hinted n)
      | _ -> None)
  | st when String.length st > 9 && String.sub st 0 9 = "residual:" ->
      Some (Residual (String.sub st 9 (String.length st - 9)))
  | _ -> None

let summarize vr =
  {
    vs_name = vr.vr_vc.F.vc_name;
    vs_sub = vr.vr_vc.F.vc_sub;
    vs_digest = F.vc_digest vr.vr_vc;
    vs_status = status_string vr.vr_status;
    vs_attempts = vr.vr_attempts;
    vs_time = vr.vr_time;
    vs_cached = vr.vr_cached;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>implementation proof: %d VCs, %d auto (%.1f%%), %d interactive, %d residual%a%a@,\
     %d/%d subprograms fully automatic; %d prover attempts; %.1fs@]"
    r.ip_total r.ip_auto (100.0 *. auto_fraction r) r.ip_hinted r.ip_residual
    (fun ppf n -> if n > 0 then Fmt.pf ppf ", %d timed out" n)
    r.ip_timed_out
    (fun ppf n -> if n > 0 then Fmt.pf ppf ", %d discharged by analysis" n)
    r.ip_discharged (fully_auto_subs r) (List.length r.ip_subs) r.ip_attempts r.ip_time;
  if r.ip_cache_hits > 0 then
    Fmt.pf ppf "@,proof cache: %d hit(s), %d miss(es)" r.ip_cache_hits
      r.ip_cache_misses;
  if r.ip_carried > 0 then
    Fmt.pf ppf "@,impact carry: %d verdict(s) carried from the baseline"
      r.ip_carried;
  Option.iter (Fmt.pf ppf "@,VC generation infeasible: %s") r.ip_infeasible

let pp_details ppf r =
  pp_report ppf r;
  Fmt.pf ppf "@,";
  List.iter
    (fun s ->
      Fmt.pf ppf
        "@,  %-24s %3d VCs  %3d auto %3d hinted %3d residual %3d timeout %3d discharged"
        s.ss_name s.ss_total s.ss_auto s.ss_hinted s.ss_residual s.ss_timed_out
        s.ss_discharged)
    r.ip_subs;
  List.iter
    (fun v ->
      match v.vr_status with
      | Residual reason ->
          Fmt.pf ppf "@,  residual %s [%s] after %d attempts: %s" v.vr_vc.F.vc_name
            (F.vc_kind_name v.vr_vc.F.vc_kind) v.vr_attempts
            (if String.length reason > 120 then String.sub reason 0 120 ^ "..." else reason)
      | Timed_out s ->
          Fmt.pf ppf "@,  timeout  %s [%s] after %d attempts (last %.3fs)" v.vr_vc.F.vc_name
            (F.vc_kind_name v.vr_vc.F.vc_kind) v.vr_attempts s
      | _ -> ())
    r.ip_results
