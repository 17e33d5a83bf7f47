(* Tests for the profiling layer: cost centers and self time on synthetic
   traces, deterministic critical paths under a scripted clock, the farm
   worker span DAG, the folded-stack exporter golden round trip, focus
   slices and per-category refactor attribution. *)

module T = Telemetry

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

let span ?(cat = "t") ?(attrs = []) ~id ~parent ~start ~dur name =
  T.Span
    {
      sp_id = id;
      sp_parent = parent;
      sp_name = name;
      sp_cat = cat;
      sp_start = start;
      sp_dur = dur;
      sp_attrs = attrs;
    }

let feq = Alcotest.(check (float 1e-9))

(* local copy of the span payload (the event's inline record cannot
   escape its constructor) *)
type sp = { id : int; parent : int; name : string; cat : string }

let span_payloads evs =
  List.filter_map
    (function
      | T.Span { sp_id; sp_parent; sp_name; sp_cat; _ } ->
          Some { id = sp_id; parent = sp_parent; name = sp_name; cat = sp_cat }
      | T.Instant _ -> None)
    evs

(* ---------------- cost centers ---------------- *)

(* root [0,10] with children a [1,4], b [4,9] and a second "a" [9,10]:
   same-path spans aggregate, and self time subtracts the child union *)
let cost_center_trace =
  [
    span ~id:1 ~parent:0 ~start:0.0 ~dur:10.0 "root"
      ~attrs:[ ("gc_minor_w", T.F 100.0); ("gc_major_w", T.F 10.0) ];
    span ~id:2 ~parent:1 ~start:1.0 ~dur:3.0 "a" ~attrs:[ ("gc_minor_w", T.F 50.0) ];
    span ~id:3 ~parent:1 ~start:4.0 ~dur:5.0 "b";
    span ~id:4 ~parent:1 ~start:9.0 ~dur:1.0 "a";
  ]

let test_cost_centers () =
  match Profile.cost_centers cost_center_trace with
  | [ b; a; root ] ->
      Alcotest.(check (list string)) "b path" [ "root"; "b" ] b.Profile.cc_path;
      feq "b self = dur (leaf)" 5.0 b.Profile.cc_self;
      Alcotest.(check (list string)) "a path" [ "root"; "a" ] a.Profile.cc_path;
      Alcotest.(check int) "both a spans aggregate" 2 a.Profile.cc_count;
      feq "a total sums" 4.0 a.Profile.cc_total;
      feq "a self sums" 4.0 a.Profile.cc_self;
      feq "a gc minor from its spans only" 50.0 a.Profile.cc_gc_minor_w;
      Alcotest.(check (list string)) "root path" [ "root" ] root.Profile.cc_path;
      feq "root self = dur - child union" 1.0 root.Profile.cc_self;
      feq "root total = dur" 10.0 root.Profile.cc_total;
      feq "root gc minor" 100.0 root.Profile.cc_gc_minor_w;
      feq "root gc major" 10.0 root.Profile.cc_gc_major_w
  | ccs -> Alcotest.failf "expected 3 cost centers, got %d" (List.length ccs)

let test_gc_attrs_recorded () =
  with_telemetry (fun () ->
      T.with_span "alloc" (fun () ->
          ignore (Sys.opaque_identity (List.init 100_000 (fun i -> i))));
      match T.events () with
      | [ T.Span { sp_attrs; _ } ] -> (
          match List.assoc_opt "gc_minor_w" sp_attrs with
          | Some (T.F v) ->
              Alcotest.(check bool) "allocation shows in gc_minor_w" true (v > 0.0)
          | _ -> Alcotest.fail "gc_minor_w attribute missing")
      | _ -> Alcotest.fail "expected exactly one span")

(* ---------------- critical path ---------------- *)

(* root [0,10] -> sequential s1 [0,2], then concurrent workers w1 [2,8]
   and w2 [2,7]: sequential parts add, the cluster contributes only its
   longest chain *)
let cp_trace w2_dur =
  [
    span ~id:1 ~parent:0 ~start:0.0 ~dur:10.0 "root";
    span ~id:2 ~parent:1 ~start:0.0 ~dur:2.0 "s1";
    span ~id:3 ~parent:1 ~cat:T.cat_worker ~start:2.0 ~dur:6.0 "w1";
    span ~id:4 ~parent:1 ~cat:T.cat_worker ~start:2.0 ~dur:w2_dur "w2";
  ]

let test_critical_path () =
  let cp = Profile.critical_path (cp_trace 5.0) in
  Alcotest.(check (list (pair string (float 1e-9))))
    "chain: root self, s1, longest worker"
    [ ("root", 2.0); ("s1", 2.0); ("w1", 6.0) ]
    cp.Profile.cp_frames;
  feq "critical path length" 10.0 cp.Profile.cp_seconds;
  feq "total work = sum of self times" 15.0 cp.Profile.cp_total_work;
  Alcotest.(check int) "two concurrent workers" 2 cp.Profile.cp_workers;
  feq "efficiency = work / (path * workers)" 0.75 cp.Profile.cp_efficiency

let test_critical_path_deterministic () =
  (* same trace in reversed event order, and a tied cluster: both must
     resolve identically (ties prefer the earliest-starting chain) *)
  let a = Profile.critical_path (cp_trace 5.0) in
  let b = Profile.critical_path (List.rev (cp_trace 5.0)) in
  Alcotest.(check bool) "event order does not matter" true
    (a.Profile.cp_frames = b.Profile.cp_frames
    && a.Profile.cp_seconds = b.Profile.cp_seconds);
  let tied = Profile.critical_path (cp_trace 6.0) in
  Alcotest.(check (list (pair string (float 1e-9))))
    "tie resolves to the lower-id chain"
    [ ("root", 2.0); ("s1", 2.0); ("w1", 6.0) ]
    tied.Profile.cp_frames;
  let tied' = Profile.critical_path (List.rev (cp_trace 6.0)) in
  Alcotest.(check bool) "tie is stable under reordering" true
    (tied.Profile.cp_frames = tied'.Profile.cp_frames)

(* ---------------- farm worker DAG ---------------- *)

let test_farm_worker_dag () =
  with_telemetry (fun () ->
      let results = ref [||] in
      T.with_span ~cat:"test" "farm-root" (fun () ->
          let rs, _ =
            Farm.Pool.run ~jobs:3 ~priority:(fun _ -> 1)
              ~f:(fun i -> i * 2)
              (Array.init 9 (fun i -> i))
          in
          results := rs);
      Alcotest.(check (array int)) "results in order"
        (Array.init 9 (fun i -> i * 2))
        !results;
      let spans = span_payloads (T.events ()) in
      let root =
        match List.filter (fun s -> s.parent = 0) spans with
        | [ r ] -> r
        | rs -> Alcotest.failf "expected a single root span, got %d" (List.length rs)
      in
      Alcotest.(check string) "the root is the enclosing span" "farm-root" root.name;
      let workers = List.filter (fun s -> s.cat = T.cat_worker) spans in
      Alcotest.(check int) "one span per worker" 3 (List.length workers);
      List.iter
        (fun w ->
          Alcotest.(check int)
            (w.name ^ " parented under the dispatch span")
            root.id w.parent)
        workers;
      (* utilisation attributes are present and consistent *)
      let jobs_total = ref 0 in
      List.iter
        (fun (w : Profile.worker_stat) ->
          jobs_total := !jobs_total + w.Profile.w_jobs;
          Alcotest.(check bool) (w.Profile.w_name ^ " busy <= wall") true
            (w.Profile.w_busy <= w.Profile.w_wall +. 1e-3);
          (* the span also covers a few clock reads outside the job loop,
             so busy+idle can undershoot wall by a hair, never exceed it *)
          Alcotest.(check bool) (w.Profile.w_name ^ " busy+idle ~ wall") true
            (let gap =
               w.Profile.w_wall -. (w.Profile.w_busy +. w.Profile.w_idle)
             in
             gap >= -1e-3 && gap <= 0.05))
        (Profile.worker_stats (T.events ()));
      Alcotest.(check int) "workers ran every job exactly once" 9 !jobs_total;
      (* the whole trace is one connected DAG rooted at farm-root *)
      let ids = List.map (fun s -> s.id) spans in
      List.iter
        (fun s ->
          if s.id <> root.id then
            Alcotest.(check bool)
              (s.name ^ " has its parent in the trace")
              true (List.mem s.parent ids))
        spans)

(* A traced certified AES run at width 2 certifies beside the script: every
   oracle span runs on a worker of the one [certify] span under the
   refactor stage, no cost center's self time is negative, and the
   critical path runs through the certification while its work overlaps
   the script's. *)
let test_certify_overlap_trace () =
  let evs =
    with_telemetry (fun () ->
        let config =
          { Echo.Orchestrator.default_config with
            Echo.Orchestrator.oc_certify = true;
            oc_jobs = 2 }
        in
        let r = Echo.Orchestrator.run ~config Aes.Aes_echo.case_study in
        (match r.Echo.Orchestrator.o_verdict with
        | Echo.Orchestrator.Verified -> ()
        | v -> Alcotest.failf "expected VERIFIED, got %a" Echo.Orchestrator.pp_verdict v);
        T.events ())
  in
  let spans = span_payloads evs in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let parent s = Hashtbl.find_opt by_id s.parent in
  let oracles = List.filter (fun s -> s.name = "oracle") spans in
  Alcotest.(check bool) "oracle spans recorded" true (oracles <> []);
  let under_worker o =
    match parent o with
    | Some w when w.cat = T.cat_worker -> (
        match parent w with
        | Some c when c.name = "certify" && c.cat = T.cat_transform -> (
            match parent c with Some r -> r.name = "refactor" | None -> false)
        | _ -> false)
    | _ -> false
  in
  Alcotest.(check int) "oracle spans not under refactor / certify / worker-N" 0
    (List.length (List.filter (fun o -> not (under_worker o)) oracles));
  List.iter
    (fun (cc : Profile.cost_center) ->
      if cc.Profile.cc_self < -1e-9 then
        Alcotest.failf "negative self time %.6f at %s" cc.Profile.cc_self
          (String.concat " / " cc.Profile.cc_path))
    (Profile.cost_centers evs);
  (* the certification's span opens before the script's last step *)
  let start_of name =
    List.filter_map
      (function
        | T.Span { sp_name; sp_start; sp_dur; sp_cat; sp_attrs; _ }
          when sp_cat = T.cat_transform
               && (sp_name = name || (name = "" && List.mem_assoc "outcome" sp_attrs)) ->
            Some (sp_start, sp_start +. sp_dur)
        | _ -> None)
      evs
  in
  let certify_start =
    match start_of "certify" with
    | [ (t, _) ] -> t
    | l -> Alcotest.failf "expected one certify span, got %d" (List.length l)
  in
  let last_step_end = List.fold_left (fun acc (_, e) -> Float.max acc e) 0.0 (start_of "") in
  Alcotest.(check bool) "certification opens while the script runs" true
    (certify_start < last_step_end);
  let cp = Profile.critical_path evs in
  Alcotest.(check bool) "the critical path runs through the certification" true
    (List.mem_assoc "certify" cp.Profile.cp_frames);
  Alcotest.(check bool) "parallel work: the path is shorter than the work" true
    (cp.Profile.cp_seconds < cp.Profile.cp_total_work);
  Alcotest.(check bool) "two concurrent workers" true (cp.Profile.cp_workers >= 2)

(* ---------------- folded stacks ---------------- *)

let test_folded_golden_round_trip () =
  (* every start/finish reads the ticker once, so self times are exact:
     outer [0,1.25] with inner [0.25,0.5] and "a;b c" [0.75,1.0] *)
  let evs =
    Logic.Clock.with_source (ticker ~step:0.25 ()) (fun () ->
        with_telemetry (fun () ->
            T.with_span "outer" (fun () ->
                T.with_span "inner" (fun () -> ());
                T.with_span "a;b c" (fun () -> ()));
            T.events ()))
  in
  let golden = "outer 750000\nouter;a:b_c 250000\nouter;inner 250000\n" in
  Alcotest.(check string) "folded stacks match the golden text" golden
    (Profile.folded_stacks evs);
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-profile-%d.folded" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Profile.write_folded ~path evs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write_folded: %s" e);
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let back = really_input_string ic n in
      close_in ic;
      Alcotest.(check string) "file round trip" golden back)

let test_folded_aggregates_identical_stacks () =
  let evs =
    [
      span ~id:1 ~parent:0 ~start:0.0 ~dur:1.0 "p";
      span ~id:2 ~parent:1 ~start:0.0 ~dur:0.25 "leaf";
      span ~id:3 ~parent:1 ~start:0.5 ~dur:0.25 "leaf";
    ]
  in
  Alcotest.(check string) "identical stacks sum their counts"
    "p 500000\np;leaf 500000\n"
    (Profile.folded_stacks evs)

(* ---------------- focus and refactor attribution ---------------- *)

let test_focus_slices_subtree () =
  let evs =
    [
      span ~id:1 ~parent:0 ~start:0.0 ~dur:10.0 "pipeline-run" ~cat:T.cat_pipeline;
      span ~id:2 ~parent:1 ~start:0.0 ~dur:4.0 "refactor" ~cat:T.cat_stage;
      span ~id:3 ~parent:2 ~start:1.0 ~dur:2.0 "apply" ~cat:T.cat_transform;
      span ~id:4 ~parent:1 ~start:4.0 ~dur:5.0 "annotate" ~cat:T.cat_stage;
      T.Instant { ev_name = "ping"; ev_cat = "t"; ev_time = 1.0; ev_attrs = [] };
    ]
  in
  let sliced =
    Profile.focus evs ~keep:(fun ~cat ~name -> cat = T.cat_stage && name = "refactor")
  in
  Alcotest.(check int) "subtree only, instants dropped" 2 (List.length sliced);
  match Profile.cost_centers sliced with
  | cc :: _ ->
      Alcotest.(check (list string)) "sliced root re-roots the paths"
        [ "refactor" ] cc.Profile.cc_path
  | [] -> Alcotest.fail "no cost centers in the slice"

let test_refactor_categories () =
  let apply cat dur id start =
    span ~id ~parent:0 ~start ~dur "apply" ~cat:T.cat_transform
      ~attrs:[ ("category", T.S cat); ("outcome", T.S "applied") ]
  in
  let evs =
    [
      apply "structural" 2.0 1 0.0;
      apply "structural" 3.0 2 2.0;
      apply "local" 1.0 3 5.0;
      (* nested rewrite spans carry "category" but no "outcome": counting
         them would double-book time already inside the apply span *)
      span ~id:4 ~parent:1 ~start:0.0 ~dur:5.0 "rewrite" ~cat:T.cat_transform
        ~attrs:[ ("category", T.S "structural") ];
    ]
  in
  Alcotest.(check (list (triple string int (float 1e-9))))
    "per-category steps and seconds, seconds descending"
    [ ("structural", 2, 5.0); ("local", 1, 1.0) ]
    (Profile.refactor_categories evs)

let suites =
  [
    ( "profile.cost-centers",
      [
        Alcotest.test_case "aggregation and self time" `Quick test_cost_centers;
        Alcotest.test_case "gc deltas attached to spans" `Quick test_gc_attrs_recorded;
      ] );
    ( "profile.critical-path",
      [
        Alcotest.test_case "sequential + concurrent clusters" `Quick test_critical_path;
        Alcotest.test_case "deterministic under reorder and ties" `Quick
          test_critical_path_deterministic;
        Alcotest.test_case "farm workers form one connected DAG" `Quick
          test_farm_worker_dag;
        Alcotest.test_case "certification overlaps the refactoring" `Slow
          test_certify_overlap_trace;
      ] );
    ( "profile.folded",
      [
        Alcotest.test_case "golden round trip on a scripted clock" `Quick
          test_folded_golden_round_trip;
        Alcotest.test_case "identical stacks aggregate" `Quick
          test_folded_aggregates_identical_stacks;
      ] );
    ( "profile.attribution",
      [
        Alcotest.test_case "focus keeps the subtree" `Quick test_focus_slices_subtree;
        Alcotest.test_case "per-category refactor seconds" `Quick
          test_refactor_categories;
      ] );
  ]
