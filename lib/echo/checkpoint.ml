(* Stage checkpoints: one file per completed stage under the run
   directory.  The header carries a format version and the case-study
   name, so resuming against the wrong case or an old format is detected
   up front instead of surfacing as a type confusion deep in a proof. *)

type stage =
  | S_refactor
  | S_certify
  | S_annotate
  | S_analyze
  | S_impact
  | S_impl
  | S_extract
  | S_implication

let all_stages =
  [
    S_refactor; S_certify; S_annotate; S_analyze; S_impact; S_impl; S_extract;
    S_implication;
  ]

let stage_name = function
  | S_refactor -> "refactor"
  | S_certify -> "certify"
  | S_annotate -> "annotate"
  | S_analyze -> "analyze"
  | S_impact -> "impact"
  | S_impl -> "implementation-proof"
  | S_extract -> "extract"
  | S_implication -> "implication-proof"

let stage_index = function
  | S_refactor -> 1
  | S_certify -> 2
  | S_annotate -> 3
  | S_analyze -> 4
  | S_impact -> 5
  | S_impl -> 6
  | S_extract -> 7
  | S_implication -> 8

(* The change-impact audit persisted by incremental runs: what the
   semantic diff found, which subprograms re-prove and why, and which
   baseline verdicts were carried.  Plain data so external tools can be
   handed [im_json] without understanding Marshal. *)
type impact_audit = {
  im_changed : string list;               (* subprograms the diff flagged *)
  im_impacted : (string * string list) list;  (* name, re-prove reasons *)
  im_carried : string list;               (* subprograms carried over *)
  im_carried_vcs : int;    (* baseline VC verdicts scheduled for carry *)
  im_json : string;        (* the full Analysis.Impact plan as JSON *)
}

type payload =
  | P_refactor of {
      pr_final_src : string;
      pr_steps : int;
      pr_summary : string;
      pr_certificates : (int * string * Refactor.Certify.certificate) list;
    }
  | P_certify of {
      pc_audit : Refactor.Certify.audit;
      pc_stats : Refactor.Certify.stats;
    }
  | P_annotate of { pa_src : string }
  | P_analyze of Analysis.Examiner.t
  | P_impact of impact_audit
  | P_impl of Implementation_proof.report
  | P_extract of { px_theory : Specl.Sast.theory; px_match : Specl.Match_ratio.result }
  | P_implication of { pi_lemmas : (string * bool * string) list }

(* v4: [S_impact] exists (stage indices shifted), [P_impact] carries the
   change-impact audit, and the proof report gained [ip_carried]; v5:
   certificates name their rule (closure, scheme, reused oracle) and the
   certification stats count decided and sampled targets; v6: the
   equivalence-VC rule ([M_vc]) and the VC/cache counts are gone, which
   shifts the constructor tags of later rules; older files are rejected
   by the header check below and recomputed *)
let format_version = "ECHO-CKPT v6"

(* case names can contain spaces and parens; keep filenames tame *)
let slug s =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    s

let file ~dir ~case stage =
  Filename.concat dir
    (Printf.sprintf "%d-%s.%s.ckpt" (stage_index stage) (stage_name stage) (slug case))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir ~case stage payload =
  try
    mkdir_p dir;
    let path = file ~dir ~case stage in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (format_version ^ "\n");
        output_string oc (case ^ "\n");
        Marshal.to_channel oc payload []);
    Sys.rename tmp path;
    Ok ()
  with e -> Error (Printexc.to_string e)

let load ~dir ~case stage =
  let path = file ~dir ~case stage in
  if not (Sys.file_exists path) then None
  else
    Some
      (try
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () ->
             let version = input_line ic in
             let stored_case = input_line ic in
             if not (String.equal version format_version) then
               Error (Printf.sprintf "%s: format %S, expected %S" path version format_version)
             else if not (String.equal stored_case case) then
               Error (Printf.sprintf "%s: case %S, expected %S" path stored_case case)
             else Ok (Marshal.from_channel ic : payload))
       with e -> Error (Printf.sprintf "%s: %s" path (Printexc.to_string e)))

(* Telemetry travels next to the stage checkpoints, in open formats
   (JSONL events, JSON metrics) rather than Marshal: the trace is meant
   to be read by external tools, not just by a resuming binary. *)

let telemetry_events_file ~dir = Filename.concat dir "telemetry.events.jsonl"
let telemetry_metrics_file ~dir = Filename.concat dir "telemetry.metrics.json"

let save_telemetry ~dir =
  if not (Telemetry.enabled ()) then Ok ()
  else begin
    (* a failed mkdir surfaces as the write's error just below *)
    (try mkdir_p dir with _ -> ());
    match Telemetry.write_jsonl ~path:(telemetry_events_file ~dir) (Telemetry.events ()) with
    | Error _ as e -> e
    | Ok () ->
        Telemetry.write_metrics ~path:(telemetry_metrics_file ~dir) (Telemetry.snapshot ())
  end

let load_telemetry ~dir =
  let path = telemetry_events_file ~dir in
  if not (Sys.file_exists path) then None
  else Some (Telemetry.read_jsonl ~path)

let clear ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        if
          Filename.check_suffix f ".ckpt" || Filename.check_suffix f ".ckpt.tmp"
          || String.length f >= 10 && String.sub f 0 10 = "telemetry."
        then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)
