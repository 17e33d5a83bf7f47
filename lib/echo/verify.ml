(* One verification job as a service sees it — see verify.mli.  The job
   runs through [Orchestrator.run_job]; this module only maps the
   orchestrator's report onto the wire-facing outcome and its stage ids
   onto the wire's stage names. *)

type vc_summary = Implementation_proof.vc_summary = {
  vs_name : string;
  vs_sub : string;
  vs_digest : string;
  vs_status : string;
  vs_attempts : int;
  vs_time : float;
  vs_cached : bool;
}

type baseline = Implementation_proof.baseline = {
  vb_outline : Analysis.Semdiff.outline;
  vb_results : vc_summary list;
}

type options = {
  vo_analyze : bool;
  vo_jobs : int;
  vo_cache : Farm.Cache.t option;
  vo_baseline : baseline option;
  vo_deadline_s : float option;
}

let default_options =
  {
    vo_analyze = false;
    vo_jobs = 1;
    vo_cache = None;
    vo_baseline = None;
    vo_deadline_s = None;
  }

type verdict = Orchestrator.verdict =
  | Verified
  | Conditionally_verified of int
  | Degraded of Orchestrator.degradation
  | Failed of Fault.t

type outcome = {
  vj_verdict : verdict;
  vj_total : int;
  vj_auto : int;
  vj_hinted : int;
  vj_residual : int;
  vj_timed_out : int;
  vj_discharged : int;
  vj_carried : int;
  vj_cache_hits : int;
  vj_cache_misses : int;
  vj_attempts : int;
  vj_impacted_subs : int;
  vj_results : vc_summary list;
  vj_outline : Analysis.Semdiff.outline option;
  vj_notes : string list;
  vj_seconds : float;
}

let verdict_string = function
  | Verified -> "verified"
  | Conditionally_verified _ -> "conditional"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

type stage_hook = stage:string -> [ `Start | `Ok of float | `Failed of string ] -> unit

let wire_stage = function
  | Checkpoint.S_annotate -> "parse"
  | Checkpoint.S_impl -> "prove"
  | s -> Checkpoint.stage_name s

let run ?(options = default_options) ?on_stage ~source () : outcome =
  let config =
    {
      Orchestrator.default_config with
      Orchestrator.oc_analyze = options.vo_analyze;
      oc_jobs = options.vo_jobs;
      oc_global_deadline_s = options.vo_deadline_s;
    }
  in
  let r =
    Orchestrator.run_job ~config
      ?on_stage:(Option.map (fun f s ev -> f ~stage:(wire_stage s) ev) on_stage)
      ?cache:options.vo_cache ?baseline:options.vo_baseline ~source ()
  in
  let ip = Option.value ~default:Implementation_proof.empty r.Orchestrator.o_impl in
  {
    vj_verdict = r.Orchestrator.o_verdict;
    vj_total = ip.Implementation_proof.ip_total;
    vj_auto = ip.Implementation_proof.ip_auto;
    vj_hinted = ip.Implementation_proof.ip_hinted;
    vj_residual = ip.Implementation_proof.ip_residual;
    vj_timed_out = ip.Implementation_proof.ip_timed_out;
    vj_discharged = ip.Implementation_proof.ip_discharged;
    vj_carried = ip.Implementation_proof.ip_carried;
    vj_cache_hits = ip.Implementation_proof.ip_cache_hits;
    vj_cache_misses = ip.Implementation_proof.ip_cache_misses;
    vj_attempts = ip.Implementation_proof.ip_attempts;
    vj_impacted_subs =
      (match r.Orchestrator.o_impact with
      | Some a -> List.length a.Checkpoint.im_impacted
      | None -> 0);
    vj_results = r.Orchestrator.o_results;
    vj_outline = r.Orchestrator.o_outline;
    vj_notes = r.Orchestrator.o_notes;
    vj_seconds = r.Orchestrator.o_time;
  }
