(* Tests for the telemetry substrate: span trees under a mock clock,
   histogram bucket edges, exporter well-formedness (Chrome trace, JSONL
   round trips), disabled-mode no-ops, and the pipeline integration (one
   span per stage, one per VC, merged traces across resume). *)

open Minispark
module T = Telemetry
module O = Echo.Orchestrator
module CK = Echo.Checkpoint

(* a deterministic clock: every [now] call advances by [step] seconds *)
let ticker ?(start = 0.0) ?(step = 1.0) () =
  let t = ref (start -. step) in
  fun () ->
    t := !t +. step;
    !t

let with_telemetry body =
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    body

(* local copy of the span payload (the event's inline record cannot
   escape its constructor) *)
type sp = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  start : float;
  dur : float;
  attrs : T.attrs;
}

let spans evs =
  List.filter_map
    (function
      | T.Span { sp_id; sp_parent; sp_name; sp_cat; sp_start; sp_dur; sp_attrs } ->
          Some
            {
              id = sp_id;
              parent = sp_parent;
              name = sp_name;
              cat = sp_cat;
              start = sp_start;
              dur = sp_dur;
              attrs = sp_attrs;
            }
      | T.Instant _ -> None)
    evs

let span_exn ev =
  match spans [ ev ] with
  | [ s ] -> s
  | _ -> Alcotest.fail "expected a span, got an instant"

let find_attr name attrs =
  match List.assoc_opt name attrs with
  | Some v -> v
  | None -> Alcotest.failf "missing attribute %S" name

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  Logic.Clock.with_source (ticker ()) (fun () ->
      with_telemetry (fun () ->
          let outer = T.start_span ~cat:"t" "outer" in
          let inner = T.start_span ~cat:"t" "inner" in
          T.finish_span inner;
          T.finish_span outer;
          match List.map span_exn (T.events ()) with
          | [ o; i ] ->
              Alcotest.(check string) "outer first (by start)" "outer" o.name;
              Alcotest.(check string) "inner second" "inner" i.name;
              Alcotest.(check int) "outer is a root" 0 o.parent;
              Alcotest.(check int) "inner nested under outer" o.id i.parent;
              Alcotest.(check bool) "inner inside outer" true
                (i.start >= o.start
                && i.start +. i.dur <= o.start +. o.dur)
          | evs -> Alcotest.failf "expected 2 spans, got %d" (List.length evs)))

let test_finish_unwinds_children () =
  with_telemetry (fun () ->
      let outer = T.start_span "outer" in
      let _leaked = T.start_span "leaked" in
      (* closing the outer span must defensively close the leaked child *)
      T.finish_span outer;
      Alcotest.(check int) "both spans finished" 2 (List.length (T.events ())))

let test_with_span_exception () =
  with_telemetry (fun () ->
      (try T.with_span "failing" (fun () -> failwith "boom") with Failure _ -> ());
      match List.map span_exn (T.events ()) with
      | [ s ] -> (
          match find_attr "error" s.attrs with
          | T.S msg ->
              Alcotest.(check bool) "error attr mentions exception" true
                (Astring.String.is_infix ~affix:"boom" msg)
          | _ -> Alcotest.fail "error attribute not a string")
      | evs -> Alcotest.failf "expected 1 span, got %d" (List.length evs))

let test_annotate_and_instant () =
  with_telemetry (fun () ->
      T.with_span "s" (fun () ->
          T.annotate [ ("k", T.I 7) ];
          T.instant "ping" ~attrs:[ ("n", T.I 1) ]);
      let evs = T.events () in
      Alcotest.(check int) "span + instant" 2 (List.length evs);
      match spans evs with
      | [ s ] -> (
          match find_attr "k" s.attrs with
          | T.I 7 -> ()
          | _ -> Alcotest.fail "annotate did not merge the attribute")
      | _ -> Alcotest.fail "expected exactly one span")

let test_disabled_no_ops () =
  T.reset ();
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  let id = T.start_span "ghost" in
  Alcotest.(check int) "disabled start_span returns 0" 0 id;
  T.finish_span id;
  T.count "ghost_counter";
  T.observe "ghost_histogram" 1.0;
  T.instant "ghost_instant";
  Alcotest.(check int) "no events collected" 0 (List.length (T.events ()));
  let sn = T.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length sn.T.sn_counters);
  Alcotest.(check int) "no histograms" 0 (List.length sn.T.sn_histograms)

(* ---------------- metrics ---------------- *)

let test_counters_and_gauges () =
  with_telemetry (fun () ->
      T.count "c";
      T.count ~by:4 "c";
      T.gauge "g" 1.5;
      T.gauge "g" 2.5;
      let sn = T.snapshot () in
      Alcotest.(check (list (pair string int))) "counter sums" [ ("c", 5) ] sn.T.sn_counters;
      Alcotest.(check (list (pair string (float 1e-9)))) "gauge keeps last"
        [ ("g", 2.5) ] sn.T.sn_gauges)

let test_histogram_bucket_edges () =
  with_telemetry (fun () ->
      let buckets = [| 1.0; 2.0; 5.0 |] in
      (* inclusive upper bounds: 1.0 lands in the first bucket, 2.0 in the
         second, 5.0 in the third, 5.0 + epsilon in the overflow slot *)
      List.iter (T.observe ~buckets "h") [ 0.5; 1.0; 1.5; 2.0; 5.0; 6.0 ];
      match List.assoc_opt "h" (T.snapshot ()).T.sn_histograms with
      | None -> Alcotest.fail "histogram missing"
      | Some h ->
          Alcotest.(check (array (float 0.0))) "bounds kept" buckets h.T.hs_buckets;
          Alcotest.(check (array int)) "per-bucket counts" [| 2; 2; 1; 1 |] h.T.hs_counts;
          Alcotest.(check int) "total count" 6 h.T.hs_count;
          Alcotest.(check (float 1e-9)) "sum" 16.0 h.T.hs_sum;
          Alcotest.(check (float 1e-9)) "min" 0.5 h.T.hs_min;
          Alcotest.(check (float 1e-9)) "max" 6.0 h.T.hs_max)

(* ---------------- exporters ---------------- *)

(* a small but representative trace, on a mock clock so times are exact *)
let sample_events () =
  Logic.Clock.with_source (ticker ~step:0.25 ()) (fun () ->
      with_telemetry (fun () ->
          T.with_span ~cat:T.cat_stage "stage-a" (fun () ->
              T.with_span ~cat:T.cat_vc ~attrs:[ ("sub", T.S "f") ] "vc-1" (fun () ->
                  T.instant "match_ratio"
                    ~attrs:[ ("block", T.S "01"); ("ratio", T.F 0.5) ]));
          T.events ()))

let test_chrome_trace_well_formed () =
  let evs = sample_events () in
  let json_text = T.Json.to_string (T.chrome_trace evs) in
  match T.Json.of_string json_text with
  | Error e -> Alcotest.failf "chrome trace does not reparse: %s" e
  | Ok json -> (
      match T.Json.member "traceEvents" json with
      | Some (T.Json.List entries) ->
          Alcotest.(check int) "one entry per event" (List.length evs)
            (List.length entries);
          List.iter
            (fun entry ->
              (match T.Json.member "ph" entry with
              | Some (T.Json.String ("X" | "i")) -> ()
              | _ -> Alcotest.fail "entry without a complete/instant phase");
              (match T.Json.member "ts" entry with
              | Some (T.Json.Float ts) ->
                  Alcotest.(check bool) "microsecond timestamps are relative" true
                    (ts >= 0.0)
              | Some (T.Json.Int ts) ->
                  Alcotest.(check bool) "microsecond timestamps are relative" true
                    (ts >= 0)
              | _ -> Alcotest.fail "entry without a timestamp");
              match T.Json.member "name" entry with
              | Some (T.Json.String _) -> ()
              | _ -> Alcotest.fail "entry without a name")
            entries
      | _ -> Alcotest.fail "no traceEvents array")

let test_jsonl_round_trip () =
  let evs = sample_events () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-telemetry-%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match T.write_jsonl ~path evs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_jsonl: %s" e);
      match T.read_jsonl ~path with
      | Error e -> Alcotest.failf "read_jsonl: %s" e
      | Ok back ->
          Alcotest.(check bool) "events survive the JSONL round trip" true (evs = back))

let test_snapshot_round_trip () =
  let sn =
    with_telemetry (fun () ->
        T.count ~by:3 "c";
        T.gauge "g" 0.25;
        T.observe ~buckets:[| 1.0; 2.0 |] "h" 1.5;
        T.snapshot ())
  in
  match T.snapshot_of_json (T.snapshot_to_json sn) with
  | Error e -> Alcotest.failf "snapshot does not reparse: %s" e
  | Ok back ->
      Alcotest.(check bool) "counters survive" true (sn.T.sn_counters = back.T.sn_counters);
      Alcotest.(check bool) "gauges survive" true (sn.T.sn_gauges = back.T.sn_gauges);
      Alcotest.(check bool) "histograms survive" true
        (sn.T.sn_histograms = back.T.sn_histograms)

let test_ingest_allocates_above () =
  with_telemetry (fun () ->
      T.ingest
        [
          T.Span
            {
              sp_id = 41;
              sp_parent = 0;
              sp_name = "old";
              sp_cat = "t";
              sp_start = 0.0;
              sp_dur = 1.0;
              sp_attrs = [];
            };
        ];
      let id = T.start_span "new" in
      T.finish_span id;
      Alcotest.(check bool) "fresh ids above ingested ids" true (id > 41);
      Alcotest.(check int) "ingested + fresh" 2 (List.length (T.events ())))

(* ---------------- clock ---------------- *)

let test_clock_mockable_and_monotone () =
  let readings =
    Logic.Clock.with_source (ticker ~start:10.0 ~step:2.0 ()) (fun () ->
        let a = Logic.Clock.now () in
        let b = Logic.Clock.now () in
        let c = Logic.Clock.now () in
        [ a; b; c ])
  in
  Alcotest.(check (list (float 1e-9))) "mock readings" [ 10.0; 12.0; 14.0 ] readings;
  (* a source that runs backwards must still read monotone *)
  let t = ref 100.0 in
  let backwards () =
    t := !t -. 1.0;
    !t
  in
  Logic.Clock.with_source backwards (fun () ->
      let a = Logic.Clock.now () in
      let b = Logic.Clock.now () in
      Alcotest.(check bool) "never goes backwards" true (b >= a));
  (* the real clock is restored afterwards *)
  Alcotest.(check bool) "wall clock restored" true (Logic.Clock.now () > 1e9)

(* ---------------- pipeline integration ---------------- *)

let tiny_src =
  {|
program tiny is

  type byte is mod 256;

  procedure swap (a : in out byte; b : in out byte)
  --# post a = b~ and b = a~;
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
  end swap;

end tiny;
|}

let tiny_case () : Echo.Pipeline.case_study =
  let env, prog = Typecheck.check (Parser.of_string tiny_src) in
  let spec = Extract.extract_program env prog in
  {
    Echo.Pipeline.cs_name = "tiny";
    cs_refactor = (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
    cs_annotate = (fun p -> p);
    cs_original_spec = spec;
    cs_synonyms = [];
    cs_lemmas =
      (fun ~extracted:_ ->
        [
          Echo.Implication.structural ~name:"tiny_struct" ~original:"tiny"
            ~extracted:"tiny" ~premises:[] ~check:(fun () -> true) ();
        ]);
  }

let stage_spans evs = List.filter (fun s -> s.cat = T.cat_stage) (spans evs)
let vc_spans evs = List.filter (fun s -> s.cat = T.cat_vc) (spans evs)

let test_orchestrated_run_is_traced () =
  with_telemetry (fun () ->
      let r = O.run (tiny_case ()) in
      let evs = T.events () in
      let vcs =
        match r.O.o_impl with
        | Some impl -> impl.Echo.Implementation_proof.ip_total
        | None -> Alcotest.fail "no implementation-proof report"
      in
      Alcotest.(check bool) "has VCs" true (vcs > 0);
      Alcotest.(check int) "one span per stage" 5 (List.length (stage_spans evs));
      Alcotest.(check int) "one span per VC" vcs (List.length (vc_spans evs));
      Alcotest.(check int) "one pipeline root span" 1
        (List.length (List.filter (fun s -> s.cat = T.cat_pipeline) (spans evs)));
      (* every VC span carries the levels its ladder searched *)
      let span_attempts =
        List.fold_left
          (fun acc s ->
            match find_attr "attempts" s.attrs with
            | T.I n -> acc + n
            | _ -> Alcotest.failf "VC span %s: attempts is not an integer" s.name)
          0 (vc_spans evs)
      in
      (match r.O.o_impl with
      | Some impl ->
          Alcotest.(check int) "VC spans' attempts = report attempts"
            impl.Echo.Implementation_proof.ip_attempts span_attempts
      | None -> ());
      (* counters agree with the proof report *)
      let sn = T.snapshot () in
      Alcotest.(check (option int)) "vcs_attempted counter" (Some vcs)
        (List.assoc_opt "vcs_attempted" sn.T.sn_counters);
      Alcotest.(check (option int)) "prover_attempts counted from VC spans"
        (Some span_attempts)
        (List.assoc_opt "prover_attempts" sn.T.sn_counters))

let temp_run_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "echo-telemetry-%s-%d" tag (Unix.getpid ()))

let test_resume_merges_traces () =
  let dir = temp_run_dir "resume" in
  let config = { O.default_config with O.oc_run_dir = Some dir } in
  Fun.protect
    ~finally:(fun () -> CK.clear ~dir)
    (fun () ->
      with_telemetry (fun () ->
          let _ = O.run ~config (tiny_case ()) in
          let first = T.events () in
          (* the resumed run starts a fresh collector, ingests the stored
             trace, and replays every stage from its checkpoint *)
          T.enable ();
          let _ = O.resume ~config (tiny_case ()) in
          let merged = T.events () in
          Alcotest.(check int) "first run: one span per stage" 5
            (List.length (stage_spans first));
          Alcotest.(check int) "merged trace: both runs' stage spans" 10
            (List.length (stage_spans merged));
          Alcotest.(check bool) "merged trace strictly grows" true
            (List.length merged > List.length first)))

let test_retry_attempt_elapsed () =
  (* the capability ladder is timed as a whole: a VC's prover time spans
     every level it searched *)
  let vc =
    {
      Logic.Formula.vc_name = "t.1";
      vc_sub = "t";
      vc_kind = Logic.Formula.Vc_assert;
      vc_hyps = [];
      vc_goal = Logic.Formula.fls;
    }
  in
  Logic.Clock.with_source (ticker ~step:0.5 ()) (fun () ->
      let r = Logic.Prover.prove_vc ~hints:Logic.Prover.standard_hints vc in
      Alcotest.(check int) "every level searched" 3 r.Logic.Prover.pr_levels;
      (* each level reads the clock when it starts, so the mock clock has
         ticked at least once per level inside the timed region *)
      Alcotest.(check bool) "pr_time covers every level" true
        (r.Logic.Prover.pr_time >= 3.0 *. 0.5))

let test_summary_renders () =
  with_telemetry (fun () ->
      let _ = O.run (tiny_case ()) in
      let text =
        T.Summary.render ~top:3 ~events:(T.events ()) ~metrics:(Some (T.snapshot ())) ()
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "summary mentions %S" needle)
            true
            (Astring.String.is_infix ~affix:needle text))
        [
          "per-stage";
          "slowest VCs";
          "implementation-proof";
          "counters";
          "vcs_attempted";
        ])

let suites =
  [
    ( "telemetry.spans",
      [
        Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
        Alcotest.test_case "finish unwinds children" `Quick test_finish_unwinds_children;
        Alcotest.test_case "with_span re-raises, keeps span" `Quick test_with_span_exception;
        Alcotest.test_case "annotate and instant" `Quick test_annotate_and_instant;
        Alcotest.test_case "disabled means no-ops" `Quick test_disabled_no_ops;
      ] );
    ( "telemetry.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
        Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
      ] );
    ( "telemetry.exporters",
      [
        Alcotest.test_case "chrome trace is well-formed JSON" `Quick
          test_chrome_trace_well_formed;
        Alcotest.test_case "JSONL round trip" `Quick test_jsonl_round_trip;
        Alcotest.test_case "snapshot JSON round trip" `Quick test_snapshot_round_trip;
        Alcotest.test_case "ingest allocates fresh ids above" `Quick
          test_ingest_allocates_above;
      ] );
    ( "telemetry.clock",
      [
        Alcotest.test_case "mockable and monotone" `Quick test_clock_mockable_and_monotone;
      ] );
    ( "telemetry.pipeline",
      [
        Alcotest.test_case "orchestrated run is traced" `Quick
          test_orchestrated_run_is_traced;
        Alcotest.test_case "resume merges traces" `Quick test_resume_merges_traces;
        Alcotest.test_case "retry attempts carry elapsed" `Quick test_retry_attempt_elapsed;
        Alcotest.test_case "summary renders the report" `Quick test_summary_renders;
      ] );
  ]
