(* Proof-worker process body — see worker.mli. *)

let crash_exit_code = 66

let run_assignment ?cache ~emit (a : Protocol.assignment) :
    Protocol.wire_outcome =
  let js = a.Protocol.as_job in
  let attempt = a.Protocol.as_attempt in
  (* injected crash (tests / chaos): die mid-stage on the first attempt
     only, so the daemon's retry produces a clean second run *)
  if js.Protocol.js_fail = Some "crash" && attempt = 1 then begin
    emit
      (Protocol.Stage
         {
           ev_job = js.Protocol.js_id;
           ev_stage = "parse";
           ev_phase = Protocol.P_start;
           ev_attempt = attempt;
         });
    Unix._exit crash_exit_code
  end;
  (match cache with Some c -> ignore (Farm.Cache.refresh c) | None -> ());
  let on_stage ~stage ev =
    let phase =
      match ev with
      | `Start -> Protocol.P_start
      | `Ok s -> Protocol.P_ok s
      | `Failed d -> Protocol.P_failed d
    in
    emit
      (Protocol.Stage
         {
           ev_job = js.Protocol.js_id;
           ev_stage = stage;
           ev_phase = phase;
           ev_attempt = attempt;
         })
  in
  let options =
    {
      Echo.Verify.vo_analyze = js.Protocol.js_analyze;
      vo_jobs =
        (if js.Protocol.js_jobs <= 0 then Farm.Pool.default_jobs ()
         else js.Protocol.js_jobs);
      vo_cache = cache;
      vo_baseline = js.Protocol.js_baseline;
      vo_deadline_s = js.Protocol.js_deadline_s;
    }
  in
  let telemetry = a.Protocol.as_telemetry in
  if telemetry <> None then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let span =
    if telemetry <> None then
      Some
        (Telemetry.start_span ~cat:Telemetry.cat_pipeline
           ~attrs:[ ("attempt", Telemetry.I attempt) ]
           ("job " ^ js.Protocol.js_id))
    else None
  in
  let outcome = Echo.Verify.run ~options ~on_stage ~source:js.Protocol.js_source () in
  (match span with
  | Some sp ->
      (* this job's events on the worker's long-lived VC-generation memo:
         the run published them as counters, and the collector was reset
         at job start *)
      let memo =
        List.filter
          (fun (name, _) -> String.starts_with ~prefix:"vcgen_memo_" name)
          (Telemetry.snapshot ()).Telemetry.sn_counters
      in
      Telemetry.finish_span
        ~attrs:
          ([
             ( "verdict",
               Telemetry.S (Echo.Verify.verdict_string outcome.Echo.Verify.vj_verdict)
             );
             ("vcs", Telemetry.I outcome.Echo.Verify.vj_total);
           ]
          @ List.map (fun (name, n) -> (name, Telemetry.I n)) memo)
        sp
  | None -> ());
  (match telemetry with
  | Some path ->
      ignore (Telemetry.write_jsonl ~path (Telemetry.events ()));
      Telemetry.reset ();
      Telemetry.disable ()
  | None -> ());
  Protocol.of_outcome outcome

let main ?cache_dir ~input ~output () =
  let cache = Option.map (fun dir -> Farm.Cache.open_ ~dir) cache_dir in
  let emit ev =
    (* a dead daemon means no-one wants the result: just exit *)
    match Protocol.send output (Protocol.event_to_json ev) with
    | Ok () -> ()
    | Error _ -> Unix._exit 0
  in
  let lines = Protocol.Lines.create () in
  let rec serve () =
    match Protocol.Lines.pop lines with
    | Some line ->
        (match Telemetry.Json.of_string line with
        | Ok j -> (
            match Protocol.assignment_of_json j with
            | Ok a ->
                let w = run_assignment ?cache ~emit a in
                emit
                  (Protocol.Verdict
                     {
                       ev_job = a.Protocol.as_job.Protocol.js_id;
                       ev_outcome = w;
                       ev_dedup = false;
                       ev_attempts = a.Protocol.as_attempt;
                     })
            | Error _ -> ())
        | Error _ -> ());
        serve ()
    | None -> (
        match Protocol.read_chunk input with
        | `Eof -> Unix._exit 0
        | `Data d ->
            Protocol.Lines.feed lines d;
            serve ())
  in
  serve ()
