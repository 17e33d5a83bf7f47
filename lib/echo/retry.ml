(* Retry ladders: staged proof strategies with explicit budgets, after
   Grov's tactic-style staging.  Each rung is a self-contained attempt;
   escalation order and budgets are data, not control flow, so policies
   can be tuned (and chaos-tested) without touching the prover. *)

module P = Logic.Prover

type rung = {
  rg_name : string;
  rg_hints : P.hint list;
  rg_presimplify : bool;
  rg_fuel_factor : int;
}

type policy = {
  pol_rungs : rung list;
  pol_backoff_s : float;
  pol_deadline_s : float option;
}

let automatic = { rg_name = "automatic"; rg_hints = []; rg_presimplify = false; rg_fuel_factor = 1 }

let simplify_retry =
  { rg_name = "simplify"; rg_hints = []; rg_presimplify = true; rg_fuel_factor = 2 }

let hinted hints =
  { rg_name = "hinted"; rg_hints = hints; rg_presimplify = false; rg_fuel_factor = 1 }

let legacy_policy hints =
  { pol_rungs = [ automatic; hinted hints ]; pol_backoff_s = 0.0; pol_deadline_s = None }

let default_policy hints =
  {
    pol_rungs = [ automatic; simplify_retry; hinted hints ];
    pol_backoff_s = 0.0;
    pol_deadline_s = None;
  }

let with_deadline d policy = { policy with pol_deadline_s = d }

type attempt = {
  at_rung : string;
  at_outcome : P.outcome;
  at_time : float;
  at_elapsed : float;
}

type result = {
  rt_result : P.proof_result;
  rt_attempts : attempt list;
  rt_rung : rung option;
}

let attempts r = List.length r.rt_attempts

let timed_out r = match r.rt_result.P.pr_outcome with P.Timeout _ -> true | _ -> false

(* formula-size buckets for the before/after-simplify histograms *)
let node_buckets = [| 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]

let outcome_name = function
  | P.Proved -> "proved"
  | P.Unknown _ -> "unknown"
  | P.Timeout _ -> "timeout"

(* One rung: returns the prover's verdict plus the rung's wall-clock
   elapsed time (which, unlike [pr_time], includes pre-simplification).
   Instrumented as one [rung] span per attempt. *)
let run_rung ~policy ~cfg vc rung : P.proof_result * float =
  let cfg =
    {
      cfg with
      P.max_steps = cfg.P.max_steps * rung.rg_fuel_factor;
      deadline_s =
        (match (policy.pol_deadline_s, cfg.P.deadline_s) with
        | Some p, Some c -> Some (Float.min p c)
        | Some p, None -> Some p
        | None, c -> c);
    }
  in
  let t0 = Logic.Clock.now () in
  let span =
    Telemetry.start_span ~cat:Telemetry.cat_rung
      ~attrs:[ ("vc", Telemetry.S vc.Logic.Formula.vc_name) ]
      rung.rg_name
  in
  let rewrites0 = Logic.Simplify.rewrite_passes () in
  let vc =
    if not rung.rg_presimplify then vc
    else begin
      if Telemetry.enabled () then
        Telemetry.observe ~buckets:node_buckets "simplify_before_nodes"
          (float_of_int (Logic.Formula.vc_byte_size vc / 8));
      let vc' = Logic.Simplify.simplify_vc vc in
      if Telemetry.enabled () then
        Telemetry.observe ~buckets:node_buckets "simplify_after_nodes"
          (float_of_int (Logic.Formula.vc_byte_size vc' / 8));
      vc'
    end
  in
  let r =
    match P.prove_vc ~cfg ~hints:rung.rg_hints vc with
    | r -> r
    | exception Sys.Break -> raise Sys.Break
    | exception e ->
        (* a dying search is an Unknown attempt, not a dead ladder *)
        {
          P.pr_vc = vc;
          pr_outcome = P.Unknown ("prover raised: " ^ Printexc.to_string e);
          pr_hints_used = 0;
          pr_time = 0.0;
          pr_steps = 0;
        }
  in
  let elapsed = Logic.Clock.elapsed t0 in
  if Telemetry.enabled () then begin
    Telemetry.count "prover_attempts";
    Telemetry.count ~by:(Logic.Simplify.rewrite_passes () - rewrites0) "simplify_rewrite_passes";
    Telemetry.observe "rung_wall_s" elapsed;
    Telemetry.observe ~buckets:[| 1e2; 1e3; 1e4; 1e5; 1e6; 1e7 |] "prover_steps"
      (float_of_int r.P.pr_steps)
  end;
  Telemetry.finish_span span
    ~attrs:
      [
        ("outcome", Telemetry.S (outcome_name r.P.pr_outcome));
        ("prover_s", Telemetry.F r.P.pr_time);
      ];
  (r, elapsed)

let prove ?policy ~cfg vc : result =
  let policy = match policy with Some p -> p | None -> default_policy [] in
  let rec climb acc = function
    | [] -> assert false
    | rung :: rest -> (
        if acc <> [] && policy.pol_backoff_s > 0.0 then Unix.sleepf policy.pol_backoff_s;
        let r, elapsed = run_rung ~policy ~cfg vc rung in
        let a =
          {
            at_rung = rung.rg_name;
            at_outcome = r.P.pr_outcome;
            at_time = r.P.pr_time;
            at_elapsed = elapsed;
          }
        in
        let acc = a :: acc in
        match (r.P.pr_outcome, rest) with
        | P.Proved, _ -> { rt_result = r; rt_attempts = List.rev acc; rt_rung = Some rung }
        | _, [] -> { rt_result = r; rt_attempts = List.rev acc; rt_rung = None }
        | _, rest -> climb acc rest)
  in
  match policy.pol_rungs with
  | [] ->
      (* an empty ladder proves nothing but still answers *)
      let r =
        {
          P.pr_vc = vc;
          pr_outcome = P.Unknown "empty retry ladder";
          pr_hints_used = 0;
          pr_time = 0.0;
          pr_steps = 0;
        }
      in
      { rt_result = r; rt_attempts = []; rt_rung = None }
  | rungs -> climb [] rungs

let ladder_elapsed r = List.fold_left (fun acc a -> acc +. a.at_elapsed) 0.0 r.rt_attempts
