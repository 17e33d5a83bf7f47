(* The verification service (lib/serve).

   Three layers:
   - QCheck properties over the bounded job queue: strict priority
     between levels, FIFO within a level, and capacity backpressure
     ([`Full] past the bound, never silent growth);
   - codec round-trips for the NDJSON protocol, including hostile
     strings and chunked line framing, and for the daemon<->worker
     [Marshal] frames: split across reads, several in one read, and a
     partial frame at end of stream;
   - end-to-end daemon sessions over a forked daemon ({!Client.with_daemon}):
     a cold job matches a direct [Echo.Verify] run verdict-for-verdict, a
     warm duplicate is answered from the outcome table, a baseline-job
     submission re-proves only the impacted subprogram, a parse-broken
     submission fails with the right fault class, and an injected worker
     crash is retried on a respawned worker while the daemon keeps
     serving. *)

open Minispark
module Jobq = Serve.Jobq
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Client = Serve.Client

(* ------------------------------------------------------------------ *)
(* job queue properties                                                *)
(* ------------------------------------------------------------------ *)

(* model: stable sort by clamped priority reproduces pop order *)
let prop_priority_fifo =
  QCheck.Test.make ~name:"jobq pops by priority, FIFO within a level"
    ~count:200
    QCheck.(list (pair (int_range (-1) 4) small_nat))
    (fun pushes ->
      let levels = 3 in
      let capacity = max 1 (List.length pushes) in
      let q = Jobq.create ~levels ~capacity () in
      List.iter
        (fun (prio, x) ->
          match Jobq.push q ~prio (prio, x) with
          | `Ok _ -> ()
          | `Full -> QCheck.Test.fail_report "queue refused within capacity")
        pushes;
      let popped = Jobq.drain q in
      let clamp p = max 0 (min p (levels - 1)) in
      let expected =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare (clamp p1) (clamp p2))
          pushes
      in
      popped = expected && Jobq.length q = 0)

let prop_backpressure =
  QCheck.Test.make ~name:"jobq backpressure: `Full past capacity, depth exact"
    ~count:200
    QCheck.(pair (int_range 1 8) (list (int_range 0 2)))
    (fun (capacity, prios) ->
      let q = Jobq.create ~capacity () in
      let accepted =
        List.fold_left
          (fun acc prio ->
            match Jobq.push q ~prio prio with
            | `Ok depth ->
                if depth <> Jobq.length q then
                  QCheck.Test.fail_report "depth out of sync";
                acc + 1
            | `Full ->
                if Jobq.length q < capacity then
                  QCheck.Test.fail_report "refused below capacity";
                acc)
          0 prios
      in
      accepted = min capacity (List.length prios)
      && Jobq.length q = accepted
      && List.length (Jobq.drain q) = accepted)

(* pushing after pops frees capacity again *)
let jobq_reuse () =
  let q = Jobq.create ~capacity:2 () in
  ignore (Jobq.push q ~prio:1 "a");
  ignore (Jobq.push q ~prio:1 "b");
  Alcotest.(check bool) "full at capacity" true (Jobq.push q ~prio:0 "c" = `Full);
  Alcotest.(check (option string)) "pop a" (Some "a") (Jobq.pop q);
  (match Jobq.push q ~prio:0 "c" with
  | `Ok 2 -> ()
  | _ -> Alcotest.fail "push after pop should succeed at depth 2");
  Alcotest.(check (list string)) "urgent first" [ "c"; "b" ] (Jobq.drain q)

(* ------------------------------------------------------------------ *)
(* protocol codecs                                                     *)
(* ------------------------------------------------------------------ *)

let reencode to_json of_json v =
  let line = Telemetry.Json.to_string (to_json v) in
  match Telemetry.Json.of_string line with
  | Error e -> Error ("reparse: " ^ e)
  | Ok j -> of_json j

let sample_summary =
  {
    Echo.Verify.vs_name = "fletcher.3";
    vs_sub = "fletcher";
    vs_digest = "abc123";
    vs_status = "hinted:2";
    vs_attempts = 3;
    vs_time = 0.25;
    vs_cached = true;
  }

let nasty = "line\nbreak \"quoted\" back\\slash\ttab"

(* an outline with every kind, hostile names included *)
let sample_outline =
  [
    { Analysis.Semdiff.ol_name = "byte"; ol_kind = Analysis.Semdiff.K_type;
      ol_digest = "d1"; ol_iface = "" };
    { Analysis.Semdiff.ol_name = nasty; ol_kind = Analysis.Semdiff.K_const;
      ol_digest = "d2"; ol_iface = "" };
    { Analysis.Semdiff.ol_name = "g"; ol_kind = Analysis.Semdiff.K_var;
      ol_digest = "d3"; ol_iface = "" };
    { Analysis.Semdiff.ol_name = "fletcher"; ol_kind = Analysis.Semdiff.K_sub;
      ol_digest = "d4"; ol_iface = "i4" };
  ]

let job_round_trip () =
  let js =
    Protocol.job ~id:"j-1" ~analyze:true ~jobs:2 ~priority:0 ~deadline_s:1.5
      ~baseline:{ Echo.Verify.vb_outline = sample_outline; vb_results = [ sample_summary ] }
      ~fail:"crash" ~source:("program p is\n" ^ nasty) ()
  in
  match reencode Protocol.job_to_json Protocol.job_of_json js with
  | Error e -> Alcotest.fail e
  | Ok js' -> Alcotest.(check bool) "job round-trips" true (js = js')

(* The pre-outline baseline carried the baseline's source as "program":
   it is refused by name, and so is an unknown format tag. *)
let old_baseline_rejected () =
  let job baseline =
    Telemetry.Json.(
      Obj [ ("source", String "program p is"); ("baseline", baseline) ])
  in
  let expect_error what baseline affix =
    match Protocol.job_of_json (job baseline) with
    | Ok _ -> Alcotest.failf "%s: decoded" what
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error %S mentions %S" what e affix)
          true
          (Astring.String.is_infix ~affix e)
  in
  expect_error "inline program form"
    Telemetry.Json.(
      Obj [ ("program", String "program p is begin end p;"); ("results", List []) ])
    "\"program\" source form is no longer accepted";
  expect_error "unknown format"
    Telemetry.Json.(
      Obj [ ("format", String "echo-outline/0"); ("outline", List []); ("results", List []) ])
    "unknown format";
  expect_error "malformed outline entry"
    Telemetry.Json.(
      Obj
        [ ("format", String Protocol.baseline_format);
          ("outline", List [ List [ String "f"; String "sub"; String "d" ] ]);
          ("results", List []) ])
    "malformed entry";
  match
    Protocol.request_of_json
      Telemetry.Json.(
        Obj
          [ ("op", String "submit");
            ("job", job (Obj [ ("program", String "x"); ("results", List []) ])) ])
  with
  | Ok _ -> Alcotest.fail "a submit with an inline-source baseline decoded"
  | Error _ -> ()

let prop_job_round_trip =
  QCheck.Test.make ~name:"job spec codec round-trips" ~count:200
    QCheck.(
      quad printable_string printable_string (int_range 0 2)
        (option (int_range 0 100)))
    (fun (id, source, prio, deadline) ->
      let js =
        Protocol.job ~id ~priority:prio
          ?deadline_s:(Option.map float_of_int deadline)
          ~source ()
      in
      match reencode Protocol.job_to_json Protocol.job_of_json js with
      | Ok js' -> js = js'
      | Error _ -> false)

let sample_events =
  let outcome =
    {
      Protocol.w_verdict = "conditional";
      w_fault = Some ("service", "worker crashed 2 time(s)");
      w_total = 5;
      w_auto = 2;
      w_hinted = 1;
      w_residual = 2;
      w_timed_out = 0;
      w_discharged = 0;
      w_carried = 3;
      w_cache_hits = 1;
      w_cache_misses = 4;
      w_attempts = 9;
      w_impacted_subs = 1;
      w_results = [ sample_summary ];
      w_outline = Some sample_outline;
      w_notes = [ nasty ];
      w_seconds = 1.5;
    }
  in
    [
      Protocol.Accepted { ev_job = "j"; ev_depth = 4 };
      Protocol.Rejected { ev_job = "j"; ev_reason = nasty };
      Protocol.Stage
        { ev_job = "j"; ev_stage = "prove"; ev_phase = Protocol.P_start; ev_attempt = 2 };
      Protocol.Stage
        { ev_job = "j"; ev_stage = "prove"; ev_phase = Protocol.P_ok 0.5; ev_attempt = 1 };
      Protocol.Stage
        {
          ev_job = "j";
          ev_stage = "parse";
          ev_phase = Protocol.P_failed "syntax error";
          ev_attempt = 1;
        };
      Protocol.Verdict
        { ev_job = "j"; ev_outcome = outcome; ev_dedup = true; ev_attempts = 2 };
      Protocol.Stats_reply
        {
          st_submitted = 1; st_completed = 2; st_dedup_hits = 3; st_rejected = 4;
          st_retries = 5; st_worker_crashes = 6; st_worker_restarts = 7;
          st_queue_depth = 8; st_workers = 9; st_uptime_s = 10.5;
        };
      Protocol.Bye;
    ]

(* what a client receives: a verdict without its outline, which stays
   in the daemon for later baselines *)
let on_the_socket = function
  | Protocol.Verdict v ->
      Protocol.Verdict { v with ev_outcome = { v.ev_outcome with Protocol.w_outline = None } }
  | ev -> ev

let event_round_trip () =
  List.iteri
    (fun i ev ->
      (match (ev, Protocol.event_to_json ev) with
      | Protocol.Verdict { ev_outcome = { w_outline = Some _; _ }; _ }, json ->
          Alcotest.(check bool)
            (Printf.sprintf "event %d: no outline on the wire" i)
            false
            (Astring.String.is_infix ~affix:"outline" (Telemetry.Json.to_string json))
      | _ -> ());
      match reencode Protocol.event_to_json Protocol.event_of_json ev with
      | Error e -> Alcotest.fail (Printf.sprintf "event %d: %s" i e)
      | Ok ev' ->
          Alcotest.(check bool)
            (Printf.sprintf "event %d round-trips" i)
            true (on_the_socket ev = ev'))
    sample_events

(* ------------------------------------------------------------------ *)
(* daemon<->worker frames                                              *)
(* ------------------------------------------------------------------ *)

(* [f ~r ~w] over a fresh pipe; both ends closed afterwards *)
let with_pipe f =
  let r, w = Unix.pipe () in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close r; close w) (fun () -> f ~r ~w)

let write_string fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  assert (n = String.length s)

(* a frame's bytes: [send_frame] writes one [Marshal] value, no flags *)
let frame_bytes v = Marshal.to_string v []

(* send [vs] one frame each, then read until every frame is back *)
let frames_through ~r ~w ch vs =
  List.iter
    (fun v -> match Protocol.send_frame ch w v with Ok () -> () | Error e -> Alcotest.fail e)
    vs;
  let reader = Protocol.Frames.create ch in
  let rec go acc =
    if List.length acc >= List.length vs then acc
    else
      match Protocol.Frames.read reader r with
      | `Frames fs -> go (acc @ fs)
      | `Eof -> acc
  in
  go []

let sample_assignment ?(source = "program p is\n" ^ nasty) () =
  {
    Protocol.as_job =
      Protocol.job ~id:"x" ~analyze:true ~deadline_s:2.5
        ~baseline:{ Echo.Verify.vb_outline = sample_outline; vb_results = [ sample_summary ] }
        ~source ();
    as_attempt = 2;
    as_telemetry = Some "/tmp/t.jsonl";
  }

let request_round_trip () =
  let reqs =
    [ Protocol.Submit (Protocol.job ~source:"program p is" ()); Protocol.Stats;
      Protocol.Shutdown ]
  in
  List.iteri
    (fun i req ->
      match reencode Protocol.request_to_json Protocol.request_of_json req with
      | Error e -> Alcotest.fail (Printf.sprintf "request %d: %s" i e)
      | Ok req' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d round-trips" i)
            true (req = req'))
    reqs;
  let a = sample_assignment () in
  match with_pipe (fun ~r ~w -> frames_through ~r ~w Protocol.assignments [ a ]) with
  | [ a' ] -> Alcotest.(check bool) "assignment round-trips" true (a = a')
  | l -> Alcotest.failf "%d assignments read back" (List.length l)

let framing () =
  let l = Protocol.Lines.create () in
  with_pipe (fun ~r ~w ->
      let feed s =
        write_string w s;
        Alcotest.(check bool) "read" true (Protocol.Lines.read l r = `Data)
      in
      feed "{\"a\":1}\n{\"b\"";
      Alcotest.(check (option string)) "first line" (Some "{\"a\":1}")
        (Protocol.Lines.pop l);
      Alcotest.(check (option string)) "partial held back" None (Protocol.Lines.pop l);
      feed ":2}\n\n";
      Alcotest.(check (option string)) "completed line" (Some "{\"b\":2}")
        (Protocol.Lines.pop l);
      Alcotest.(check (option string)) "empty line" (Some "") (Protocol.Lines.pop l);
      Alcotest.(check (option string)) "drained" None (Protocol.Lines.pop l);
      Unix.close w;
      Alcotest.(check bool) "end of stream" true (Protocol.Lines.read l r = `Eof))

let frame_round_trip () =
  let evs = with_pipe (fun ~r ~w -> frames_through ~r ~w Protocol.events sample_events) in
  Alcotest.(check int) "every event back" (List.length sample_events) (List.length evs);
  Alcotest.(check bool) "events round-trip in order" true (evs = sample_events)

(* a frame split across reads is decoded once its last byte arrives;
   one bigger than the reader's first buffer arrives over several reads *)
let frame_split_across_reads () =
  List.iter
    (fun a ->
      let bytes = frame_bytes a in
      let n = String.length bytes in
      with_pipe (fun ~r ~w ->
          let reader = Protocol.Frames.create Protocol.assignments in
          let rec feed off reads =
            let len = min (min 20_000 ((n + 1) / 2)) (n - off) in
            write_string w (String.sub bytes off len);
            match Protocol.Frames.read reader r with
            | `Eof -> Alcotest.fail "early end of stream"
            | `Frames [] when off + len < n -> feed (off + len) (reads + 1)
            | `Frames [ a' ] when off + len = n ->
                Alcotest.(check bool) "decoded whole" true (a = a');
                reads + 1
            | `Frames fs -> Alcotest.failf "%d frame(s) after %d bytes" (List.length fs) (off + len)
          in
          let reads = feed 0 0 in
          Alcotest.(check bool) "split" true (reads >= 2)))
    [ sample_assignment ();
      (* past the 64 KB first buffer: about a served AES edit's frame *)
      sample_assignment
        ~source:(String.concat "\n" (List.init 9_000 (Printf.sprintf "-- %04d"))) () ]

let two_frames_one_read () =
  let a = sample_assignment () and b = { (sample_assignment ()) with Protocol.as_attempt = 3 } in
  let bytes = frame_bytes a ^ frame_bytes b in
  with_pipe (fun ~r ~w ->
      write_string w bytes;
      match Protocol.Frames.read (Protocol.Frames.create Protocol.assignments) r with
      | `Frames [ a'; b' ] -> Alcotest.(check bool) "both, in order" true (a = a' && b = b')
      | `Frames fs -> Alcotest.failf "%d frame(s) from one read" (List.length fs)
      | `Eof -> Alcotest.fail "end of stream")

(* a worker that dies mid-write leaves a partial frame: the reader never
   decodes it and reports end of stream, which the supervisor treats as a
   crash (respawn, then retry) *)
let partial_frame_then_eof () =
  let ev = List.nth sample_events 5 in
  let bytes = frame_bytes ev in
  List.iter
    (fun cut ->
      with_pipe (fun ~r ~w ->
          let reader = Protocol.Frames.create Protocol.events in
          write_string w (String.sub bytes 0 cut);
          Alcotest.(check bool) "nothing decoded" true (Protocol.Frames.read reader r = `Frames []);
          Unix.close w;
          Alcotest.(check bool) (Printf.sprintf "cut at %d: end of stream" cut) true
            (Protocol.Frames.read reader r = `Eof)))
    [ 1; Marshal.header_size - 1; Marshal.header_size; String.length bytes - 1 ]

(* ------------------------------------------------------------------ *)
(* end-to-end daemon sessions                                          *)
(* ------------------------------------------------------------------ *)

let read_example name = Fixture.read (Fixture.example name)

let checksum_src () = read_example "checksum.mspark"

(* twelve small subprograms: a one-procedure edit leaves most VCs to carry *)
let stream_src () = read_example "stream.mspark"

(* a benign edit: a trivially true assert prepended to one subprogram
   (checksum's [fletcher] unless [sub] says otherwise), changing its VC
   set without changing any verdict class *)
let edited_src ?(sub = "fletcher") src =
  let prog = Parser.of_string src in
  let prog =
    Ast.update_sub prog sub (fun sp ->
        { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body })
  in
  Pretty.program_to_string prog

let verdict_keys (results : Echo.Verify.vc_summary list) =
  List.map
    (fun (s : Echo.Verify.vc_summary) ->
      (s.Echo.Verify.vs_sub, s.Echo.Verify.vs_name, s.Echo.Verify.vs_status))
    results
  |> List.sort compare

let temp_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-serve-test-%s-%d" name (Unix.getpid ()))
  in
  d

let test_config name =
  {
    Daemon.default_config with
    Daemon.dc_jobs = 1;
    dc_capacity = 16;
    dc_cache_dir = Some (temp_dir (name ^ "-cache"));
    dc_state_dir = Some (temp_dir (name ^ "-state"));
  }

(* One session covering the acceptance scenarios: the assertions chain,
   so run it as a single alcotest case to pay the daemon boot once. *)
let daemon_session () =
  let src = stream_src () in
  let direct = Echo.Verify.run ~source:src () in
  let edited = edited_src ~sub:"mix" src in
  let direct_edited = Echo.Verify.run ~source:edited () in
  Client.with_daemon ~config:(test_config "session") (fun cl ->
      (* cold *)
      let cold, cold_dedup, _ =
        match Client.run_job cl (Protocol.job ~id:"cold" ~source:src ()) with
        | Ok r -> r
        | Error e -> Alcotest.fail ("cold job: " ^ e)
      in
      Alcotest.(check bool) "cold not dedup" false cold_dedup;
      Alcotest.(check string) "cold verdict matches direct run"
        (Echo.Verify.verdict_string direct.Echo.Verify.vj_verdict)
        cold.Protocol.w_verdict;
      Alcotest.(check (list (triple string string string)))
        "cold per-VC verdicts match direct run"
        (verdict_keys direct.Echo.Verify.vj_results)
        (verdict_keys cold.Protocol.w_results);
      (* warm duplicates: same source (and baseline), each one answered
         from the outcome table with the original's verdicts *)
      let duplicates ~name ~original ?baseline_job source n =
        for i = 1 to n do
          let id = Printf.sprintf "%s-dup-%d" name i in
          let dup, dedup, attempts =
            match Client.run_job cl (Protocol.job ~id ~source ?baseline_job ()) with
            | Ok r -> r
            | Error e -> Alcotest.fail (id ^ ": " ^ e)
          in
          Alcotest.(check bool) (id ^ " deduplicated") true dedup;
          Alcotest.(check int) (id ^ " used no worker attempts") 0 attempts;
          Alcotest.(check (list (triple string string string)))
            (id ^ " verdicts identical to the original")
            (verdict_keys original.Protocol.w_results)
            (verdict_keys dup.Protocol.w_results)
        done
      in
      duplicates ~name:"cold" ~original:cold src 3;
      (* incremental: edited program, baseline = the cold job *)
      let incr, _, _ =
        match
          Client.run_job cl
            (Protocol.job ~id:"incr" ~source:edited ~baseline_job:"cold" ())
        with
        | Ok r -> r
        | Error e -> Alcotest.fail ("incremental job: " ^ e)
      in
      Alcotest.(check (list (triple string string string)))
        "incremental verdicts match full run on edited program"
        (verdict_keys direct_edited.Echo.Verify.vj_results)
        (verdict_keys incr.Protocol.w_results);
      Alcotest.(check bool) "incremental carried baseline verdicts" true
        (incr.Protocol.w_carried > 0);
      Alcotest.(check int) "only the edited subprogram re-proves" 1
        incr.Protocol.w_impacted_subs;
      Alcotest.(check bool)
        (Printf.sprintf "under 25%% of VCs re-proved (%d of %d)"
           (incr.Protocol.w_total - incr.Protocol.w_carried)
           incr.Protocol.w_total)
        true
        (4 * (incr.Protocol.w_total - incr.Protocol.w_carried) < incr.Protocol.w_total);
      duplicates ~name:"incr" ~original:incr ~baseline_job:"cold" edited 2;
      (* a submission that cannot parse fails with the parse fault class *)
      let broken, _, _ =
        match
          Client.run_job cl
            (Protocol.job ~id:"broken" ~source:"program oops is garbage" ())
        with
        | Ok r -> r
        | Error e -> Alcotest.fail ("broken job should verdict, got: " ^ e)
      in
      Alcotest.(check string) "broken verdict" "failed" broken.Protocol.w_verdict;
      Alcotest.(check bool) "a program that never checked has no outline" true
        (broken.Protocol.w_outline = None);
      (* ... so an edit naming it as baseline has nothing to plan against
         and runs cold, with the full run's verdicts *)
      (match
         Client.run_job cl
           (Protocol.job ~id:"after-broken" ~source:edited ~baseline_job:"broken" ())
       with
      | Ok (w, _, _) ->
          Alcotest.(check (list (triple string string string)))
            "cold edit verdicts match full run on edited program"
            (verdict_keys direct_edited.Echo.Verify.vj_results)
            (verdict_keys w.Protocol.w_results);
          Alcotest.(check int) "nothing carried without an outline" 0 w.Protocol.w_carried
      | Error e -> Alcotest.fail ("edit against the broken job: " ^ e));
      (match broken.Protocol.w_fault with
      | Some (cls, _) ->
          Alcotest.(check string) "broken fault class" "parse" cls;
          Alcotest.(check int) "parse exit code" 2
            (Protocol.exit_code_of_class cls)
      | None -> Alcotest.fail "broken job carries no fault");
      (* unknown baseline reference is rejected, not crashed *)
      (match
         Client.run_job cl
           (Protocol.job ~id:"orphan" ~source:src ~baseline_job:"no-such" ())
       with
      | Error reason ->
          Alcotest.(check bool) "rejection names the missing baseline" true
            (Astring.String.is_infix ~affix:"no-such" reason)
      | Ok _ -> Alcotest.fail "unknown baseline reference must be rejected");
      (* stats reflect the session *)
      match Client.stats cl with
      | Error e -> Alcotest.fail ("stats: " ^ e)
      | Ok st ->
          Alcotest.(check int) "ten submissions" 10 st.Protocol.st_submitted;
          Alcotest.(check int) "five dedup hits" 5 st.Protocol.st_dedup_hits;
          Alcotest.(check int) "one rejection" 1 st.Protocol.st_rejected;
          Alcotest.(check int) "no crashes" 0 st.Protocol.st_worker_crashes;
          Alcotest.(check int) "queue drained" 0 st.Protocol.st_queue_depth)

(* kill-a-worker-mid-job: the injected crash takes the worker process
   down on attempt 1; the daemon must respawn, retry, and stay up. *)
let crash_recovery () =
  let src = checksum_src () in
  Client.with_daemon ~config:(test_config "crash") (fun cl ->
      let stages = ref [] in
      let outcome, dedup, attempts =
        match
          Client.run_job cl
            ~on_event:(fun ev ->
              match ev with
              | Protocol.Stage { ev_attempt; _ } -> stages := ev_attempt :: !stages
              | _ -> ())
            (Protocol.job ~id:"boom" ~source:src ~fail:"crash" ())
        with
        | Ok r -> r
        | Error e -> Alcotest.fail ("crash job: " ^ e)
      in
      Alcotest.(check bool) "not dedup" false dedup;
      Alcotest.(check int) "verdict arrived on the retry attempt" 2 attempts;
      Alcotest.(check bool) "stage events from both attempts" true
        (List.mem 1 !stages && List.mem 2 !stages);
      (* the retried run completes normally: same verdict as a direct run *)
      let direct = Echo.Verify.run ~source:src () in
      Alcotest.(check string) "retried verdict matches direct run"
        (Echo.Verify.verdict_string direct.Echo.Verify.vj_verdict)
        outcome.Protocol.w_verdict;
      Alcotest.(check (list (triple string string string)))
        "retried per-VC verdicts match direct run"
        (verdict_keys direct.Echo.Verify.vj_results)
        (verdict_keys outcome.Protocol.w_results);
      (* daemon survived: it still answers, and owns a respawned worker *)
      match Client.stats cl with
      | Error e -> Alcotest.fail ("stats after crash: " ^ e)
      | Ok st ->
          Alcotest.(check int) "one worker crash recorded" 1
            st.Protocol.st_worker_crashes;
          Alcotest.(check int) "one worker respawned" 1
            st.Protocol.st_worker_restarts;
          Alcotest.(check int) "one retry recorded" 1 st.Protocol.st_retries;
          Alcotest.(check int) "job completed despite the crash" 1
            st.Protocol.st_completed)

(* a job past the attempt budget surfaces as a service fault, exit 8 *)
let crash_budget_exhausted () =
  let src = checksum_src () in
  let config = { (test_config "budget") with Daemon.dc_max_attempts = 1 } in
  Client.with_daemon ~config (fun cl ->
      match
        Client.run_job cl (Protocol.job ~id:"doom" ~source:src ~fail:"crash" ())
      with
      | Error e -> Alcotest.fail ("budget job should verdict, got: " ^ e)
      | Ok (outcome, _, _) -> (
          Alcotest.(check string) "failed verdict" "failed"
            outcome.Protocol.w_verdict;
          match outcome.Protocol.w_fault with
          | Some (cls, _) ->
              Alcotest.(check string) "service fault class" "service" cls;
              Alcotest.(check int) "service exit code" 8
                (Protocol.exit_code_of_class cls)
          | None -> Alcotest.fail "no fault attached"))

(* ------------------------------------------------------------------ *)
(* served edits: one worker's memos across jobs                        *)
(* ------------------------------------------------------------------ *)

(* One worker body serves the clean program, then an edit with the clean
   job as its inline baseline, then the same edit with no baseline.  Each
   job's per-VC verdicts must equal a cold one-shot [Verify.run] (in a
   fresh domain, so none of this process's memos can serve it), and the
   later jobs must report hits on the worker's VC-generation memo.  Runs
   after the daemon cases: once a domain is spawned, fork is off. *)
let served_edits_identity () =
  let src = checksum_src () in
  let edited = edited_src src in
  let cold source =
    Domain.join (Domain.spawn (fun () -> Echo.Verify.run ~source ()))
  in
  let cache = Farm.Cache.open_ ~dir:(temp_dir "identity-cache") in
  let serve ~id ?baseline source =
    let trace = Filename.temp_file "echo-serve-identity" ".jsonl" in
    let w =
      Serve.Worker.run_assignment ~cache ~emit:ignore
        {
          Protocol.as_job = Protocol.job ~id ~jobs:1 ?baseline ~source ();
          as_attempt = 1;
          as_telemetry = Some trace;
        }
    in
    let events =
      match Telemetry.read_jsonl ~path:trace with
      | Ok events -> events
      | Error e -> Alcotest.fail ("job telemetry: " ^ e)
    in
    Sys.remove trace;
    let hits =
      List.find_map
        (function
          | Telemetry.Span { sp_name; sp_attrs; _ } when sp_name = "job " ^ id -> (
              match List.assoc_opt "vcgen_memo_hits" sp_attrs with
              | Some (Telemetry.I n) -> Some n
              | _ -> None)
          | _ -> None)
        events
    in
    (w, hits)
  in
  let check what source (w : Protocol.wire_outcome) =
    Alcotest.(check (list (triple string string string)))
      (what ^ ": per-VC verdicts = cold one-shot run")
      (verdict_keys (cold source).Echo.Verify.vj_results)
      (verdict_keys w.Protocol.w_results)
  in
  let clean, clean_hits = serve ~id:"clean" src in
  check "clean" src clean;
  Alcotest.(check bool) "the job span carries the memo counters" true
    (clean_hits <> None);
  let baseline =
    match clean.Protocol.w_outline with
    | Some outline -> { Echo.Verify.vb_outline = outline; vb_results = clean.Protocol.w_results }
    | None -> Alcotest.fail "the clean job returned no outline"
  in
  let edit, edit_hits = serve ~id:"edit" ~baseline edited in
  check "edit against the clean baseline" edited edit;
  Alcotest.(check bool) "edit carried baseline verdicts" true
    (edit.Protocol.w_carried > 0);
  let fresh, fresh_hits = serve ~id:"fresh" edited in
  check "same edit, no baseline" edited fresh;
  let hit = function Some n -> n > 0 | None -> false in
  Alcotest.(check bool) "the edit job hits the VC memo" true (hit edit_hits);
  Alcotest.(check bool) "the fresh job hits the VC memo" true (hit fresh_hits)

(* A served baseline is an outline of the program a job checked: a
   program (or an assert-edited variant of it) outlined before and after
   a print-then-parse round trip classifies every subprogram [Unchanged]
   and changes no declaration. *)
let prop_semdiff_reparse =
  let programs =
    lazy
      (List.map
         (fun f -> Parser.of_string (read_example f))
         [ "checksum.mspark"; "sbox_lookup.mspark" ])
  in
  QCheck.Test.make ~name:"semdiff: print-then-parse leaves every subprogram unchanged"
    ~count:40
    QCheck.(pair (int_bound 1) (option small_nat))
    (fun (which, edit) ->
      let p = List.nth (Lazy.force programs) which in
      let p =
        match edit with
        | None -> p
        | Some k ->
            let subs = Ast.subprograms p in
            let name = (List.nth subs (k mod List.length subs)).Ast.sub_name in
            Ast.update_sub p name (fun sp ->
                { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body })
      in
      let d =
        Analysis.Semdiff.diff ~old_o:(Analysis.Semdiff.outline p)
          ~new_o:(Analysis.Semdiff.outline (Parser.of_string (Pretty.program_to_string p)))
      in
      List.for_all (fun (_, c) -> c = Analysis.Semdiff.Unchanged) d.Analysis.Semdiff.sd_subs
      && d.Analysis.Semdiff.sd_decls = [])

let props = List.map QCheck_alcotest.to_alcotest
  [ prop_priority_fifo; prop_backpressure; prop_job_round_trip ]

let suites =
  [
    ( "serve.jobq",
      props
      @ [ Alcotest.test_case "capacity reuse after pops" `Quick jobq_reuse ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "job spec round-trip (hostile strings)" `Quick
          job_round_trip;
        Alcotest.test_case "old inline-source baseline rejected" `Quick
          old_baseline_rejected;
        Alcotest.test_case "event round-trips" `Quick event_round_trip;
        Alcotest.test_case "request/assignment round-trips" `Quick
          request_round_trip;
        Alcotest.test_case "NDJSON framing" `Quick framing;
        Alcotest.test_case "frame round-trip" `Quick frame_round_trip;
        Alcotest.test_case "frame split across reads" `Quick frame_split_across_reads;
        Alcotest.test_case "two frames in one read" `Quick two_frames_one_read;
        Alcotest.test_case "partial frame then EOF" `Quick partial_frame_then_eof;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "cold/warm/incremental session" `Slow daemon_session;
        Alcotest.test_case "worker crash: retried, daemon survives" `Slow
          crash_recovery;
        Alcotest.test_case "crash past attempt budget: service fault" `Slow
          crash_budget_exhausted;
      ] );
    (* after serve.daemon: these spawn domains *)
    ( "serve.identity",
      [
        Alcotest.test_case "served edits match cold one-shot runs" `Slow
          served_edits_identity;
        QCheck_alcotest.to_alcotest prop_semdiff_reparse;
      ] );
  ]
