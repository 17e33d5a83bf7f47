(* NDJSON wire protocol — see protocol.mli.  The JSON layer is
   Telemetry.Json (the repo-local parser/printer), so the service adds no
   dependency; decoding is defensive throughout because submissions cross
   a process boundary. *)

module J = Telemetry.Json
module SD = Analysis.Semdiff

type job_spec = {
  js_id : string;
  js_source : string;
  js_analyze : bool;
  js_jobs : int;
  js_priority : int;
  js_deadline_s : float option;
  js_baseline : Echo.Verify.baseline option;
  js_baseline_job : string option;
  js_fail : string option;
}

let job ?(id = "") ?(analyze = false) ?(jobs = 0) ?(priority = 1) ?deadline_s
    ?baseline ?baseline_job ?fail ~source () =
  {
    js_id = id;
    js_source = source;
    js_analyze = analyze;
    js_jobs = jobs;
    js_priority = priority;
    js_deadline_s = deadline_s;
    js_baseline = baseline;
    js_baseline_job = baseline_job;
    js_fail = fail;
  }

type wire_outcome = {
  w_verdict : string;
  w_fault : (string * string) option;
  w_total : int;
  w_auto : int;
  w_hinted : int;
  w_residual : int;
  w_timed_out : int;
  w_discharged : int;
  w_carried : int;
  w_cache_hits : int;
  w_cache_misses : int;
  w_attempts : int;
  w_impacted_subs : int;
  w_results : Echo.Verify.vc_summary list;
  w_outline : SD.outline option;
  w_notes : string list;
  w_seconds : float;
}

let of_outcome (o : Echo.Verify.outcome) =
  let fault =
    match o.Echo.Verify.vj_verdict with
    | Echo.Verify.Failed f | Echo.Verify.Degraded { Echo.Orchestrator.dg_fault = f; _ } ->
        Some (Echo.Fault.class_name f, Echo.Fault.describe f)
    | Echo.Verify.Verified | Echo.Verify.Conditionally_verified _ -> None
  in
  {
    w_verdict = Echo.Verify.verdict_string o.Echo.Verify.vj_verdict;
    w_fault = fault;
    w_total = o.Echo.Verify.vj_total;
    w_auto = o.Echo.Verify.vj_auto;
    w_hinted = o.Echo.Verify.vj_hinted;
    w_residual = o.Echo.Verify.vj_residual;
    w_timed_out = o.Echo.Verify.vj_timed_out;
    w_discharged = o.Echo.Verify.vj_discharged;
    w_carried = o.Echo.Verify.vj_carried;
    w_cache_hits = o.Echo.Verify.vj_cache_hits;
    w_cache_misses = o.Echo.Verify.vj_cache_misses;
    w_attempts = o.Echo.Verify.vj_attempts;
    w_impacted_subs = o.Echo.Verify.vj_impacted_subs;
    w_results = o.Echo.Verify.vj_results;
    w_outline = o.Echo.Verify.vj_outline;
    w_notes = o.Echo.Verify.vj_notes;
    w_seconds = o.Echo.Verify.vj_seconds;
  }

(* Mirrors Fault.exit_code over class names so clients can exit like the
   one-shot CLI without sharing the Fault.t representation. *)
let exit_code_of_class = function
  | "parse" -> 2
  | "type" -> 3
  | "refactor" -> 4
  | "vc-infeasible" | "prover-timeout" | "prover-stuck" | "lemma" | "deadline"
    -> 5
  | "analysis" -> 6
  | "certification" -> 7
  | "service" -> 8
  | _ -> 1

type request = Submit of job_spec | Stats | Shutdown

type stage_phase = P_start | P_ok of float | P_failed of string

type stats = {
  st_submitted : int;
  st_completed : int;
  st_dedup_hits : int;
  st_rejected : int;
  st_retries : int;
  st_worker_crashes : int;
  st_worker_restarts : int;
  st_queue_depth : int;
  st_workers : int;
  st_uptime_s : float;
}

type event =
  | Accepted of { ev_job : string; ev_depth : int }
  | Rejected of { ev_job : string; ev_reason : string }
  | Stage of {
      ev_job : string;
      ev_stage : string;
      ev_phase : stage_phase;
      ev_attempt : int;
    }
  | Verdict of {
      ev_job : string;
      ev_outcome : wire_outcome;
      ev_dedup : bool;
      ev_attempts : int;
    }
  | Stats_reply of stats
  | Bye

type assignment = {
  as_job : job_spec;
  as_attempt : int;
  as_telemetry : string option;
}

(* ------------------------------------------------------------------ *)
(* decoding helpers                                                    *)

let str_field name j =
  match J.member name j with Some (J.String s) -> Some s | _ -> None

let int_field name j =
  match J.member name j with
  | Some (J.Int i) -> Some i
  | Some (J.Float f) -> Some (int_of_float f)
  | _ -> None

let float_field name j =
  match J.member name j with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let bool_field name j =
  match J.member name j with Some (J.Bool b) -> Some b | _ -> None

let list_field name j =
  match J.member name j with Some (J.List l) -> Some l | _ -> None

let dflt d o = Option.value ~default:d o

let opt_of j = match j with J.Null -> None | v -> Some v

let ( let* ) = Result.bind

let require name o =
  match o with Some v -> Ok v | None -> Error ("missing field: " ^ name)

(* ------------------------------------------------------------------ *)
(* vc summaries / baselines                                            *)

let summary_to_json (s : Echo.Verify.vc_summary) =
  J.Obj
    [
      ("name", J.String s.Echo.Verify.vs_name);
      ("sub", J.String s.Echo.Verify.vs_sub);
      ("digest", J.String s.Echo.Verify.vs_digest);
      ("status", J.String s.Echo.Verify.vs_status);
      ("attempts", J.Int s.Echo.Verify.vs_attempts);
      ("time", J.Float s.Echo.Verify.vs_time);
      ("cached", J.Bool s.Echo.Verify.vs_cached);
    ]

let summary_of_json j : (Echo.Verify.vc_summary, string) result =
  let* name = require "name" (str_field "name" j) in
  let* sub = require "sub" (str_field "sub" j) in
  let* digest = require "digest" (str_field "digest" j) in
  let* status = require "status" (str_field "status" j) in
  Ok
    {
      Echo.Verify.vs_name = name;
      vs_sub = sub;
      vs_digest = digest;
      vs_status = status;
      vs_attempts = dflt 0 (int_field "attempts" j);
      vs_time = dflt 0.0 (float_field "time" j);
      vs_cached = dflt false (bool_field "cached" j);
    }

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_result f xs in
      Ok (y :: ys)

(* an outline entry is [name, kind, digest] plus the interface digest
   for a subprogram *)
let outline_to_json (o : SD.outline) =
  J.List
    (List.map
       (fun (e : SD.entry) ->
         J.List
           (J.String e.SD.ol_name
           :: J.String (SD.kind_name e.SD.ol_kind)
           :: J.String e.SD.ol_digest
           :: (match e.SD.ol_kind with
              | SD.K_sub -> [ J.String e.SD.ol_iface ]
              | _ -> [])))
       o)

let entry_of_json j : (SD.entry, string) result =
  let entry ol_name kind ol_digest ol_iface =
    match SD.kind_of_name kind with
    | None -> Error ("outline: unknown declaration kind " ^ kind)
    | Some ol_kind ->
        if (ol_kind = SD.K_sub) <> (ol_iface <> None) then
          Error ("outline: malformed entry for " ^ ol_name)
        else
          Ok
            { SD.ol_name; ol_kind; ol_digest;
              ol_iface = Option.value ~default:"" ol_iface }
  in
  match j with
  | J.List [ J.String n; J.String k; J.String d ] -> entry n k d None
  | J.List [ J.String n; J.String k; J.String d; J.String i ] -> entry n k d (Some i)
  | _ -> Error "outline: malformed entry"

let outline_of_json j =
  match j with
  | J.List es -> map_result entry_of_json es
  | _ -> Error "outline: not a list"

(* The baseline's format tag.  The pre-outline form carried the
   baseline's source as ["program"]; it is refused by name, never parsed
   or carried from. *)
let baseline_format = "echo-outline/1"

let baseline_to_json (b : Echo.Verify.baseline) =
  J.Obj
    [
      ("format", J.String baseline_format);
      ("outline", outline_to_json b.Echo.Verify.vb_outline);
      ("results", J.List (List.map summary_to_json b.Echo.Verify.vb_results));
    ]

let baseline_of_json j : (Echo.Verify.baseline, string) result =
  match str_field "format" j with
  | None when J.member "program" j <> None ->
      Error
        (Printf.sprintf
           "baseline: the inline \"program\" source form is no longer accepted; send \
            a program outline (format %S) with the per-VC results, or name a \
            completed job as baseline_job"
           baseline_format)
  | Some f when f = baseline_format ->
      let* oj = require "outline" (J.member "outline" j) in
      let* outline = outline_of_json oj in
      let* results = map_result summary_of_json (dflt [] (list_field "results" j)) in
      Ok { Echo.Verify.vb_outline = outline; vb_results = results }
  | Some f ->
      Error (Printf.sprintf "baseline: unknown format %S (expected %S)" f baseline_format)
  | None -> Error (Printf.sprintf "baseline: missing format (expected %S)" baseline_format)

(* ------------------------------------------------------------------ *)
(* jobs                                                                *)

let opt_json f = function None -> J.Null | Some v -> f v

let job_to_json (js : job_spec) =
  J.Obj
    [
      ("id", J.String js.js_id);
      ("source", J.String js.js_source);
      ("analyze", J.Bool js.js_analyze);
      ("jobs", J.Int js.js_jobs);
      ("priority", J.Int js.js_priority);
      ("deadline_s", opt_json (fun f -> J.Float f) js.js_deadline_s);
      ("baseline", opt_json baseline_to_json js.js_baseline);
      ("baseline_job", opt_json (fun s -> J.String s) js.js_baseline_job);
      ("fail", opt_json (fun s -> J.String s) js.js_fail);
    ]

let job_of_json j : (job_spec, string) result =
  let* source = require "source" (str_field "source" j) in
  let* baseline =
    match Option.bind (J.member "baseline" j) opt_of with
    | None -> Ok None
    | Some bj ->
        let* b = baseline_of_json bj in
        Ok (Some b)
  in
  Ok
    {
      js_id = dflt "" (str_field "id" j);
      js_source = source;
      js_analyze = dflt false (bool_field "analyze" j);
      js_jobs = dflt 0 (int_field "jobs" j);
      js_priority = dflt 1 (int_field "priority" j);
      js_deadline_s = float_field "deadline_s" j;
      js_baseline = baseline;
      js_baseline_job = str_field "baseline_job" j;
      js_fail = str_field "fail" j;
    }

(* ------------------------------------------------------------------ *)
(* outcomes                                                            *)

let outcome_to_json (w : wire_outcome) =
  J.Obj
    [
      ("verdict", J.String w.w_verdict);
      ( "fault",
        opt_json
          (fun (cls, detail) ->
            J.Obj [ ("class", J.String cls); ("detail", J.String detail) ])
          w.w_fault );
      ("total", J.Int w.w_total);
      ("auto", J.Int w.w_auto);
      ("hinted", J.Int w.w_hinted);
      ("residual", J.Int w.w_residual);
      ("timed_out", J.Int w.w_timed_out);
      ("discharged", J.Int w.w_discharged);
      ("carried", J.Int w.w_carried);
      ("cache_hits", J.Int w.w_cache_hits);
      ("cache_misses", J.Int w.w_cache_misses);
      ("attempts", J.Int w.w_attempts);
      ("impacted_subs", J.Int w.w_impacted_subs);
      ("results", J.List (List.map summary_to_json w.w_results));
      ("notes", J.List (List.map (fun n -> J.String n) w.w_notes));
      ("seconds", J.Float w.w_seconds);
    ]

let outcome_of_json j : (wire_outcome, string) result =
  let* verdict = require "verdict" (str_field "verdict" j) in
  let fault =
    match Option.bind (J.member "fault" j) opt_of with
    | Some fj -> (
        match (str_field "class" fj, str_field "detail" fj) with
        | Some c, d -> Some (c, dflt "" d)
        | None, _ -> None)
    | None -> None
  in
  let* results = map_result summary_of_json (dflt [] (list_field "results" j)) in
  let notes =
    List.filter_map
      (function J.String s -> Some s | _ -> None)
      (dflt [] (list_field "notes" j))
  in
  let i name = dflt 0 (int_field name j) in
  Ok
    {
      w_verdict = verdict;
      w_fault = fault;
      w_total = i "total";
      w_auto = i "auto";
      w_hinted = i "hinted";
      w_residual = i "residual";
      w_timed_out = i "timed_out";
      w_discharged = i "discharged";
      w_carried = i "carried";
      w_cache_hits = i "cache_hits";
      w_cache_misses = i "cache_misses";
      w_attempts = i "attempts";
      w_impacted_subs = i "impacted_subs";
      w_results = results;
      w_outline = None;
      w_notes = notes;
      w_seconds = dflt 0.0 (float_field "seconds" j);
    }

(* ------------------------------------------------------------------ *)
(* requests                                                            *)

let request_to_json = function
  | Submit js -> J.Obj [ ("op", J.String "submit"); ("job", job_to_json js) ]
  | Stats -> J.Obj [ ("op", J.String "stats") ]
  | Shutdown -> J.Obj [ ("op", J.String "shutdown") ]

let request_of_json j : (request, string) result =
  match str_field "op" j with
  | Some "submit" ->
      let* jj = require "job" (J.member "job" j) in
      let* js = job_of_json jj in
      Ok (Submit js)
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error ("unknown op: " ^ op)
  | None -> Error "missing field: op"

(* ------------------------------------------------------------------ *)
(* events                                                              *)

let stats_to_json (s : stats) =
  J.Obj
    [
      ("ev", J.String "stats");
      ("submitted", J.Int s.st_submitted);
      ("completed", J.Int s.st_completed);
      ("dedup_hits", J.Int s.st_dedup_hits);
      ("rejected", J.Int s.st_rejected);
      ("retries", J.Int s.st_retries);
      ("worker_crashes", J.Int s.st_worker_crashes);
      ("worker_restarts", J.Int s.st_worker_restarts);
      ("queue_depth", J.Int s.st_queue_depth);
      ("workers", J.Int s.st_workers);
      ("uptime_s", J.Float s.st_uptime_s);
    ]

let stats_of_json j : stats =
  let i name = dflt 0 (int_field name j) in
  {
    st_submitted = i "submitted";
    st_completed = i "completed";
    st_dedup_hits = i "dedup_hits";
    st_rejected = i "rejected";
    st_retries = i "retries";
    st_worker_crashes = i "worker_crashes";
    st_worker_restarts = i "worker_restarts";
    st_queue_depth = i "queue_depth";
    st_workers = i "workers";
    st_uptime_s = dflt 0.0 (float_field "uptime_s" j);
  }

let event_to_json = function
  | Accepted { ev_job; ev_depth } ->
      J.Obj
        [
          ("ev", J.String "accepted");
          ("job", J.String ev_job);
          ("depth", J.Int ev_depth);
        ]
  | Rejected { ev_job; ev_reason } ->
      J.Obj
        [
          ("ev", J.String "rejected");
          ("job", J.String ev_job);
          ("reason", J.String ev_reason);
        ]
  | Stage { ev_job; ev_stage; ev_phase; ev_attempt } ->
      let phase =
        match ev_phase with
        | P_start -> [ ("phase", J.String "start") ]
        | P_ok s -> [ ("phase", J.String "ok"); ("seconds", J.Float s) ]
        | P_failed d -> [ ("phase", J.String "failed"); ("detail", J.String d) ]
      in
      J.Obj
        ([
           ("ev", J.String "stage");
           ("job", J.String ev_job);
           ("stage", J.String ev_stage);
           ("attempt", J.Int ev_attempt);
         ]
        @ phase)
  | Verdict { ev_job; ev_outcome; ev_dedup; ev_attempts } ->
      J.Obj
        [
          ("ev", J.String "verdict");
          ("job", J.String ev_job);
          ("dedup", J.Bool ev_dedup);
          ("attempts_used", J.Int ev_attempts);
          ("outcome", outcome_to_json ev_outcome);
        ]
  | Stats_reply s -> stats_to_json s
  | Bye -> J.Obj [ ("ev", J.String "bye") ]

let event_of_json j : (event, string) result =
  match str_field "ev" j with
  | Some "accepted" ->
      let* job = require "job" (str_field "job" j) in
      Ok (Accepted { ev_job = job; ev_depth = dflt 0 (int_field "depth" j) })
  | Some "rejected" ->
      let* job = require "job" (str_field "job" j) in
      Ok
        (Rejected
           { ev_job = job; ev_reason = dflt "" (str_field "reason" j) })
  | Some "stage" ->
      let* job = require "job" (str_field "job" j) in
      let* stage = require "stage" (str_field "stage" j) in
      let* phase =
        match str_field "phase" j with
        | Some "start" -> Ok P_start
        | Some "ok" -> Ok (P_ok (dflt 0.0 (float_field "seconds" j)))
        | Some "failed" -> Ok (P_failed (dflt "" (str_field "detail" j)))
        | Some p -> Error ("unknown stage phase: " ^ p)
        | None -> Error "missing field: phase"
      in
      Ok
        (Stage
           {
             ev_job = job;
             ev_stage = stage;
             ev_phase = phase;
             ev_attempt = dflt 1 (int_field "attempt" j);
           })
  | Some "verdict" ->
      let* job = require "job" (str_field "job" j) in
      let* oj = require "outcome" (J.member "outcome" j) in
      let* outcome = outcome_of_json oj in
      Ok
        (Verdict
           {
             ev_job = job;
             ev_outcome = outcome;
             ev_dedup = dflt false (bool_field "dedup" j);
             ev_attempts = dflt 1 (int_field "attempts_used" j);
           })
  | Some "stats" -> Ok (Stats_reply (stats_of_json j))
  | Some "bye" -> Ok Bye
  | Some ev -> Error ("unknown event: " ^ ev)
  | None -> Error "missing field: ev"

(* ------------------------------------------------------------------ *)
(* framing                                                             *)

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

let send fd json = write_all fd (Bytes.unsafe_of_string (J.to_string json ^ "\n"))

(* one read into [buf] from [off], EINTR-retried; 0 at end of stream or
   on a hard error (a vanished peer reads as end of stream) *)
let rec read_into fd buf off =
  match Unix.read fd buf off (Bytes.length buf - off) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into fd buf off
  | exception Unix.Unix_error (_, _, _) -> 0

module Lines = struct
  (* every read lands in [scratch] *)
  type t = { buf : Buffer.t; ready : string Queue.t; scratch : Bytes.t }

  let create () =
    { buf = Buffer.create 256; ready = Queue.create (); scratch = Bytes.create 65536 }

  (* copies each run between newlines at once: a verdict or an edit
     submission is one line of 50-150 KB *)
  let feed t b n =
    let rec go i =
      let j = ref i in
      while !j < n && Bytes.unsafe_get b !j <> '\n' do incr j done;
      Buffer.add_subbytes t.buf b i (!j - i);
      if !j < n then begin
        Queue.push (Buffer.contents t.buf) t.ready;
        Buffer.clear t.buf;
        go (!j + 1)
      end
    in
    go 0

  let read t fd =
    match read_into fd t.scratch 0 with
    | 0 -> `Eof
    | n ->
        feed t t.scratch n;
        `Data

  let pop t = Queue.take_opt t.ready
end

(* both ends of a channel are one executable (workers fork without exec):
   a frame decodes to the type its channel names *)
type 'a channel = unit

let assignments = ()
let events = ()

let send_frame () fd v = write_all fd (Marshal.to_bytes v [])

module Frames = struct
  (* [buf.[start, stop)]: read, not yet decoded *)
  type 'a t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let create () = { buf = Bytes.create 65536; start = 0; stop = 0 }

  (* the size of the frame at [start], once its header is in *)
  let pending t =
    if t.stop - t.start < Marshal.header_size then Marshal.header_size
    else Marshal.total_size t.buf t.start

  let read t fd =
    let need = pending t in
    if t.start = t.stop || t.start + need > Bytes.length t.buf then begin
      (* move the pending bytes to the front, of a bigger buffer if the
         frame they start does not fit *)
      let len = Bytes.length t.buf in
      let buf = if need <= len then t.buf else Bytes.create (max need (2 * len)) in
      Bytes.blit t.buf t.start buf 0 (t.stop - t.start);
      t.buf <- buf;
      t.stop <- t.stop - t.start;
      t.start <- 0
    end;
    match read_into fd t.buf t.stop with
    | 0 -> `Eof
    | n ->
        t.stop <- t.stop + n;
        let rec pop acc =
          let size = pending t in
          if t.stop - t.start < size then List.rev acc
          else begin
            let v = Marshal.from_bytes t.buf t.start in
            t.start <- t.start + size;
            pop (v :: acc)
          end
        in
        `Frames (pop [])
end
