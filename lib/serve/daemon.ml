(* The serve daemon event loop — see daemon.mli.

   Shape: one select() over { listener?, client fds, worker event fds },
   all bookkeeping in hashtables keyed by job id, no threads and no
   domains in this process (workers fork, and forking is only safe while
   single-domain).  Every peer-facing write goes through Protocol.send,
   which reports a broken pipe as Error rather than raising — the daemon
   treats that as "client left" and keeps serving. *)

module J = Telemetry.Json

type config = {
  dc_jobs : int;
  dc_capacity : int;
  dc_levels : int;
  dc_max_attempts : int;
  dc_cache_dir : string option;
  dc_state_dir : string option;
  dc_telemetry : bool;
  dc_log : (string -> unit) option;
}

let default_config =
  {
    dc_jobs = 0;
    dc_capacity = 64;
    dc_levels = 3;
    dc_max_attempts = 2;
    dc_cache_dir = None;
    dc_state_dir = None;
    dc_telemetry = false;
    dc_log = None;
  }

type client = {
  cl_id : int;
  cl_in : Unix.file_descr;
  cl_out : Unix.file_descr;
  cl_lines : Protocol.Lines.t;
  mutable cl_open : bool;
}

(* A job the daemon has accepted but not finished: queued or running. *)
type pending = {
  p_job : Protocol.job_spec;   (* id assigned, baseline reference resolved *)
  p_digest : string;           (* dedup key *)
  p_client : int;              (* -1 = orphan (checkpoint reload) *)
  p_attempt : int;
}

type t = {
  cfg : config;
  sup : Supervisor.t;
  queue : pending Jobq.t;
  clients : (int, client) Hashtbl.t;
  running : (string, pending) Hashtbl.t;        (* job id -> in a worker *)
  outcomes : (string, Protocol.wire_outcome) Hashtbl.t;
      (* job id -> outcome (verdicts and outline, no source): dedup replay
         + baseline references *)
  digests : (string, string) Hashtbl.t;         (* dedup digest -> job id *)
  job_spans : (string, int) Hashtbl.t;          (* job id -> telemetry span *)
  mutable seq : int;
  mutable next_client : int;
  mutable draining : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable dedup_hits : int;
  mutable rejected : int;
  mutable retries : int;
  mutable crashes : int;
  t_start : float;
}

let logf t fmt =
  Printf.ksprintf
    (fun m -> match t.cfg.dc_log with Some f -> f m | None -> ())
    fmt

let rec mkdirs dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    id

let queue_file t =
  Option.map (fun d -> Filename.concat d "queue.jsonl") t.cfg.dc_state_dir

let trace_file t =
  Option.map (fun d -> Filename.concat d "serve-trace.jsonl") t.cfg.dc_state_dir

let telemetry_file t job attempt =
  match t.cfg.dc_state_dir with
  | Some d when t.cfg.dc_telemetry ->
      Some (Filename.concat d (Printf.sprintf "tele-%s-%d.jsonl" (sanitize job) attempt))
  | _ -> None

(* The dedup key: every submission field that can change the verdict,
   and of a baseline what a carry reads (outline, VC verdicts).  Farm
   width and queue priority are excluded on purpose — the proof farm is
   deterministic in [jobs], so they affect latency, never the answer. *)
let job_digest (js : Protocol.job_spec) =
  let baseline =
    Option.map
      (fun { Echo.Verify.vb_outline; vb_results } ->
        ( vb_outline,
          List.map (fun (s : Echo.Verify.vc_summary) -> (s.vs_digest, s.vs_status)) vb_results ))
      js.Protocol.js_baseline
  in
  let key = Protocol.(js.js_source, js.js_analyze, js.js_deadline_s, baseline, js.js_fail) in
  Digest.to_hex (Digest.string (Marshal.to_string key [ Marshal.No_sharing ]))

let stats t =
  {
    Protocol.st_submitted = t.submitted;
    st_completed = t.completed;
    st_dedup_hits = t.dedup_hits;
    st_rejected = t.rejected;
    st_retries = t.retries;
    st_worker_crashes = t.crashes;
    st_worker_restarts = Supervisor.restarts t.sup;
    st_queue_depth = Jobq.length t.queue;
    st_workers = Supervisor.size t.sup;
    st_uptime_s = Logic.Clock.elapsed t.t_start;
  }

(* --------------------------------------------------------------- *)
(* client plumbing                                                  *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let drop_client t c =
  if c.cl_open then begin
    c.cl_open <- false;
    if c.cl_in <> c.cl_out then close_quiet c.cl_in;
    close_quiet c.cl_out;
    Hashtbl.remove t.clients c.cl_id;
    logf t "client %d disconnected" c.cl_id
  end

let send_client t c ev =
  if c.cl_open then
    match Protocol.send c.cl_out (Protocol.event_to_json ev) with
    | Ok () -> ()
    | Error _ -> drop_client t c

let emit t ~client_id ev =
  match Hashtbl.find_opt t.clients client_id with
  | Some c -> send_client t c ev
  | None -> ()  (* orphan job or client already gone: result still recorded *)

(* --------------------------------------------------------------- *)
(* job lifecycle                                                    *)

let fresh_id t =
  t.seq <- t.seq + 1;
  Printf.sprintf "job-%04d" t.seq

let start_job_span t id =
  if t.cfg.dc_telemetry then
    Hashtbl.replace t.job_spans id
      (Telemetry.start_span ~cat:Telemetry.cat_pipeline ("serve " ^ id))

let finish_job_span t id ~verdict ~dedup =
  match Hashtbl.find_opt t.job_spans id with
  | None -> ()
  | Some sp ->
      Hashtbl.remove t.job_spans id;
      if t.cfg.dc_telemetry then
        Telemetry.finish_span
          ~attrs:
            [ ("verdict", Telemetry.S verdict); ("dedup", Telemetry.B dedup) ]
          sp

(* Merge a finished worker's span tree into the daemon trace. *)
let ingest_worker_telemetry t id attempt =
  match telemetry_file t id attempt with
  | None -> ()
  | Some path ->
      (match Telemetry.read_jsonl ~path with
      | Ok evs -> Telemetry.ingest evs
      | Error _ -> ());
      (try Sys.remove path with Sys_error _ -> ())

let record_outcome t (p : pending) (w : Protocol.wire_outcome) =
  let id = p.p_job.Protocol.js_id in
  Hashtbl.replace t.outcomes id w;
  if not (Hashtbl.mem t.digests p.p_digest) then
    Hashtbl.replace t.digests p.p_digest id

let dispatch t =
  let rec go () =
    if Jobq.length t.queue > 0 then
      match Supervisor.idle_worker t.sup with
      | None -> ()
      | Some w -> (
          match Jobq.pop t.queue with
          | None -> ()
          | Some p ->
              let id = p.p_job.Protocol.js_id in
              let a =
                {
                  Protocol.as_job = p.p_job;
                  as_attempt = p.p_attempt;
                  as_telemetry = telemetry_file t id p.p_attempt;
                }
              in
              (match Supervisor.assign t.sup w a with
              | Ok () ->
                  Hashtbl.replace t.running id p;
                  logf t "dispatch %s (attempt %d) -> worker pid %d" id
                    p.p_attempt (Supervisor.pid t.sup w)
              | Error e ->
                  (* broken assignment pipe: the crash path will respawn
                     this worker; put the job back for the next pass *)
                  logf t "assign %s failed (%s); requeueing" id e;
                  ignore (Jobq.push t.queue ~prio:0 p));
              go ())
  in
  go ()

let reject t ~client_id ~id reason =
  t.rejected <- t.rejected + 1;
  emit t ~client_id (Protocol.Rejected { ev_job = id; ev_reason = reason })

(* A crash verdict: the job could not be completed within the attempt
   budget; surfaced as a service-class fault, never as daemon death. *)
let crash_outcome ~attempts =
  {
    Protocol.w_verdict = "failed";
    w_fault =
      Some
        ( "service",
          Printf.sprintf "worker crashed %d time(s) running this job" attempts
        );
    w_total = 0;
    w_auto = 0;
    w_hinted = 0;
    w_residual = 0;
    w_timed_out = 0;
    w_discharged = 0;
    w_carried = 0;
    w_cache_hits = 0;
    w_cache_misses = 0;
    w_attempts = 0;
    w_impacted_subs = 0;
    w_results = [];
    w_outline = None;
    w_notes = [ "job abandoned after repeated worker crashes" ];
    w_seconds = 0.0;
  }

let submit t ~client_id (js : Protocol.job_spec) =
  t.submitted <- t.submitted + 1;
  let id = if js.Protocol.js_id = "" then fresh_id t else js.Protocol.js_id in
  let js = { js with Protocol.js_id = id } in
  if t.draining then reject t ~client_id ~id "daemon is draining"
  else if Hashtbl.mem t.running id || Hashtbl.mem t.outcomes id then
    reject t ~client_id ~id "duplicate job id"
  else begin
    (* resolve a baseline-job reference into an inline baseline: that
       job's outline and verdicts.  A job whose program never checked
       has no outline to plan against, so its successor runs cold *)
    let js, baseline_err =
      match js.Protocol.js_baseline_job with
      | Some ref_id when js.Protocol.js_baseline = None -> (
          match Hashtbl.find_opt t.outcomes ref_id with
          | Some { Protocol.w_outline = Some outline; w_results; _ } ->
              ( {
                  js with
                  Protocol.js_baseline =
                    Some { Echo.Verify.vb_outline = outline; vb_results = w_results };
                },
                None )
          | Some { Protocol.w_outline = None; _ } ->
              logf t "%s: baseline job %s has no outline; verifying from cold" id ref_id;
              (js, None)
          | None -> (js, Some (Printf.sprintf "unknown baseline job %s" ref_id)))
      | _ -> (js, None)
    in
    match baseline_err with
    | Some reason -> reject t ~client_id ~id reason
    | None -> (
        let digest = job_digest js in
        match Hashtbl.find_opt t.digests digest with
        | Some prior_id when Hashtbl.mem t.outcomes prior_id ->
            (* warm duplicate: replay the recorded outcome, no queueing *)
            let w = Hashtbl.find t.outcomes prior_id in
            t.dedup_hits <- t.dedup_hits + 1;
            Hashtbl.replace t.outcomes id w;
            emit t ~client_id (Protocol.Accepted { ev_job = id; ev_depth = Jobq.length t.queue });
            start_job_span t id;
            finish_job_span t id ~verdict:w.Protocol.w_verdict ~dedup:true;
            t.completed <- t.completed + 1;
            logf t "%s deduplicated against %s" id prior_id;
            emit t ~client_id
              (Protocol.Verdict
                 { ev_job = id; ev_outcome = w; ev_dedup = true; ev_attempts = 0 })
        | _ -> (
            let p =
              { p_job = js; p_digest = digest; p_client = client_id; p_attempt = 1 }
            in
            match Jobq.push t.queue ~prio:js.Protocol.js_priority p with
            | `Full ->
                reject t ~client_id ~id
                  (Printf.sprintf "queue full (capacity %d)" (Jobq.capacity t.queue))
            | `Ok depth ->
                emit t ~client_id (Protocol.Accepted { ev_job = id; ev_depth = depth });
                start_job_span t id;
                logf t "accepted %s at depth %d" id depth;
                dispatch t))
  end

let finish_job t (p : pending) (w : Protocol.wire_outcome) ~attempts =
  let id = p.p_job.Protocol.js_id in
  Hashtbl.remove t.running id;
  record_outcome t p w;
  ingest_worker_telemetry t id attempts;
  finish_job_span t id ~verdict:w.Protocol.w_verdict ~dedup:false;
  t.completed <- t.completed + 1;
  logf t "%s: %s (%d VCs, %.3fs, attempt %d)" id w.Protocol.w_verdict
    w.Protocol.w_total w.Protocol.w_seconds attempts;
  emit t ~client_id:p.p_client
    (Protocol.Verdict
       { ev_job = id; ev_outcome = w; ev_dedup = false; ev_attempts = attempts })

let on_worker_readable t w =
  match Supervisor.read_events t.sup w with
  | `Events evs ->
      List.iter
        (fun ev ->
          match ev with
          | Protocol.Stage { ev_job; _ } -> (
              match Hashtbl.find_opt t.running ev_job with
              | Some p -> emit t ~client_id:p.p_client ev
              | None -> ())
          | Protocol.Verdict { ev_job; ev_outcome; ev_attempts; _ } -> (
              match Hashtbl.find_opt t.running ev_job with
              | Some p -> finish_job t p ev_outcome ~attempts:ev_attempts
              | None -> ())
          | _ -> ())
        evs;
      dispatch t
  | `Crashed orphan -> (
      t.crashes <- t.crashes + 1;
      (match orphan with
      | None -> logf t "idle worker died; respawned"
      | Some a ->
          let id = a.Protocol.as_job.Protocol.js_id in
          let attempt = a.Protocol.as_attempt in
          logf t "worker died running %s (attempt %d); respawned" id attempt;
          (match Hashtbl.find_opt t.running id with
          | None -> ()
          | Some p ->
              Hashtbl.remove t.running id;
              if attempt < t.cfg.dc_max_attempts then begin
                t.retries <- t.retries + 1;
                (* retry at top priority: the client has been waiting *)
                ignore
                  (Jobq.push t.queue ~prio:0 { p with p_attempt = attempt + 1 })
              end
              else finish_job t p (crash_outcome ~attempts:attempt) ~attempts:attempt));
      dispatch t)

(* --------------------------------------------------------------- *)
(* requests                                                         *)

let handle_request t c (req : Protocol.request) =
  match req with
  | Protocol.Submit js -> submit t ~client_id:c.cl_id js
  | Protocol.Stats -> send_client t c (Protocol.Stats_reply (stats t))
  | Protocol.Shutdown ->
      logf t "shutdown requested by client %d" c.cl_id;
      t.draining <- true

let on_client_readable t c =
  match Protocol.Lines.read c.cl_lines c.cl_in with
  | `Eof -> drop_client t c
  | `Data ->
      let rec go () =
        match Protocol.Lines.pop c.cl_lines with
        | None -> ()
        | Some line ->
            (match J.of_string line with
            | Error e ->
                reject t ~client_id:c.cl_id ~id:"" ("unparseable request: " ^ e)
            | Ok j -> (
                match Protocol.request_of_json j with
                | Ok req -> handle_request t c req
                | Error e ->
                    reject t ~client_id:c.cl_id ~id:"" ("bad request: " ^ e)));
            go ()
      in
      go ()

(* --------------------------------------------------------------- *)
(* checkpointing                                                    *)

let checkpoint_queue t =
  match queue_file t with
  | None -> ignore (Jobq.drain t.queue)
  | Some path ->
      let jobs = Jobq.drain t.queue in
      if jobs <> [] then begin
        mkdirs (Filename.dirname path);
        let oc = open_out path in
        List.iter
          (fun (p : pending) ->
            output_string oc (J.to_string (Protocol.job_to_json p.p_job));
            output_char oc '\n')
          jobs;
        close_out oc;
        logf t "checkpointed %d queued job(s) to %s" (List.length jobs) path
      end

let reload_queue t =
  match queue_file t with
  | None -> ()
  | Some path when Sys.file_exists path ->
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           match J.of_string line with
           | Error _ -> ()
           | Ok j -> (
               match Protocol.job_of_json j with
               | Error e -> logf t "dropped a checkpointed job: %s" e
               | Ok js ->
                   let id =
                     if js.Protocol.js_id = "" then fresh_id t
                     else js.Protocol.js_id
                   in
                   let js = { js with Protocol.js_id = id } in
                   let p =
                     {
                       p_job = js;
                       p_digest = job_digest js;
                       p_client = -1;
                       p_attempt = 1;
                     }
                   in
                   (match Jobq.push t.queue ~prio:js.Protocol.js_priority p with
                   | `Ok _ -> incr n
                   | `Full -> ()))
         done
       with End_of_file -> ());
      close_in ic;
      (try Sys.remove path with Sys_error _ -> ());
      if !n > 0 then logf t "reloaded %d checkpointed job(s)" !n
  | Some _ -> ()

(* --------------------------------------------------------------- *)
(* the loop                                                         *)

let create cfg =
  let jobs = if cfg.dc_jobs <= 0 then Farm.Pool.default_jobs () else cfg.dc_jobs in
  Option.iter mkdirs cfg.dc_state_dir;
  Option.iter mkdirs cfg.dc_cache_dir;
  if cfg.dc_telemetry then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let t =
    {
      cfg;
      sup = Supervisor.create ?cache_dir:cfg.dc_cache_dir ~jobs ();
      queue = Jobq.create ~levels:cfg.dc_levels ~capacity:cfg.dc_capacity ();
      clients = Hashtbl.create 8;
      running = Hashtbl.create 16;
      outcomes = Hashtbl.create 64;
      digests = Hashtbl.create 64;
      job_spans = Hashtbl.create 16;
      seq = 0;
      next_client = 0;
      draining = false;
      submitted = 0;
      completed = 0;
      dedup_hits = 0;
      rejected = 0;
      retries = 0;
      crashes = 0;
      t_start = Logic.Clock.now ();
    }
  in
  reload_queue t;
  dispatch t;
  t

let add_client t ~input ~output =
  t.next_client <- t.next_client + 1;
  let c =
    {
      cl_id = t.next_client;
      cl_in = input;
      cl_out = output;
      cl_lines = Protocol.Lines.create ();
      cl_open = true;
    }
  in
  Hashtbl.replace t.clients c.cl_id c;
  c

let finalize t =
  checkpoint_queue t;
  Hashtbl.iter (fun _ c -> send_client t c Protocol.Bye) t.clients;
  let final = stats t in
  Supervisor.shutdown t.sup;
  (match trace_file t with
  | Some path when t.cfg.dc_telemetry ->
      ignore (Telemetry.write_jsonl ~path (Telemetry.events ()))
  | _ -> ());
  if t.cfg.dc_telemetry then begin
    Telemetry.reset ();
    Telemetry.disable ()
  end;
  Hashtbl.iter (fun _ c -> drop_client t c) (Hashtbl.copy t.clients);
  logf t "daemon stopped: %d completed, %d dedup, %d crash(es) survived"
    final.Protocol.st_completed final.Protocol.st_dedup_hits
    final.Protocol.st_worker_crashes;
  final

(* Work is outstanding while any job is queued or in a worker. *)
let busy t = Hashtbl.length t.running > 0 || Jobq.length t.queue > 0

let term_requested = ref false

let install_signals () =
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let handler = Sys.Signal_handle (fun _ -> term_requested := true) in
  let old_term = Sys.signal Sys.sigterm handler in
  fun () ->
    ignore (Sys.signal Sys.sigpipe old_pipe);
    ignore (Sys.signal Sys.sigterm old_term)

(* One select pass: returns false when the loop should stop. *)
let step ?(listener : Unix.file_descr option) ?(on_accept = fun _ -> ())
    ~stop_when_idle t =
  if !term_requested then t.draining <- true;
  if t.draining && Hashtbl.length t.running = 0 then false
  else if stop_when_idle () && not (busy t) then false
  else begin
    let worker_fds = Supervisor.event_fds t.sup in
    let client_fds =
      Hashtbl.fold (fun _ c acc -> if c.cl_open then c.cl_in :: acc else acc)
        t.clients []
    in
    let fds =
      (match listener with Some l when not t.draining -> [ l ] | _ -> [])
      @ worker_fds @ client_fds
    in
    match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if Some fd = listener then begin
              match Unix.accept fd with
              | sock, _ ->
                  let c = add_client t ~input:sock ~output:sock in
                  logf t "client %d connected" c.cl_id;
                  on_accept c
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Supervisor.worker_of_fd t.sup fd with
              | Some w -> on_worker_readable t w
              | None -> (
                  let c =
                    Hashtbl.fold
                      (fun _ c acc -> if c.cl_in = fd then Some c else acc)
                      t.clients None
                  in
                  match c with
                  | Some c -> on_client_readable t c
                  | None -> ()))
          readable;
        true
  end

let run_fd ?(config = default_config) ~input ~output () =
  term_requested := false;
  let restore = install_signals () in
  Fun.protect ~finally:restore (fun () ->
      let t = create config in
      let c = add_client t ~input ~output in
      (* stop once our only client is gone and every accepted job is done *)
      let stop_when_idle () = not c.cl_open in
      while step ~stop_when_idle t do
        ()
      done;
      finalize t)

let run_socket ?(config = default_config) ~path () =
  term_requested := false;
  let restore = install_signals () in
  Fun.protect ~finally:restore (fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      mkdirs (Filename.dirname path);
      let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 16;
      let t = create config in
      logf t "listening on %s with %d worker(s)" path (Supervisor.size t.sup);
      Fun.protect
        ~finally:(fun () ->
          close_quiet listener;
          try Unix.unlink path with Unix.Unix_error _ -> ())
        (fun () ->
          let stop_when_idle () = false in
          while step ~listener ~stop_when_idle t do
            ()
          done;
          finalize t))
