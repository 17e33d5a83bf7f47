(* The OCaml half of the repository benchmark: each subcommand calls the
   library layers directly and prints one JSON object on stdout; run.py
   turns those into metrics.  Nothing here adds tracing inside lib/: the
   per-layer split comes from timing this file's own calls and from the
   counters those calls return.

     echo_bench aes-run --run-dir D [--setup-only]
     echo_bench aes-trace --run-dir D
     echo_bench serve-pool --work-dir D
     echo_bench serve --seed N --seconds S --segments K --cal-units U --min-jobs J
       --setups K --trace 0|1 --work-dir D
     echo_bench gen --seed N --sessions K --steps M
     echo_bench calibrate --units N *)

open Minispark
module J = Telemetry.Json
module O = Echo.Orchestrator
module IP = Echo.Implementation_proof
module CK = Echo.Checkpoint

let print_json j = print_endline (J.to_string j)

let arg name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (List.tl (Array.to_list Sys.argv))

let flag name = Array.exists (( = ) name) Sys.argv

let required name =
  match arg name with Some v -> v | None -> failwith ("missing " ^ name)

let int_arg name = int_of_string (required name)

(* the kernel's high-water resident set of a process, in kB *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* aes-oneshot: what `echo_cli aes verify --certify --run-dir D` runs   *)
(* ------------------------------------------------------------------ *)

(* The known answer (EXPERIMENTS.md, §6.2.3 reproduced). *)
let expect_vcs, expect_auto, expect_hinted = (383, 365, 18)
let expect_steps, expect_lemmas = (59, 29)

let aes_config run_dir =
  { O.default_config with
    O.oc_run_dir = Some run_dir;
    oc_certify = true;
    oc_jobs = Farm.Pool.default_jobs ();
    oc_cache = O.Cache_default }

let impl_of (r : O.report) = Option.value ~default:IP.empty r.O.o_impl

let certified (r : O.report) =
  match r.O.o_certify with Some a -> a.Refactor.Certify.au_certified | None -> 0

let lemmas_ok (r : O.report) = List.length (List.filter (fun (_, h, _) -> h) r.O.o_lemmas)

let known_answer (r : O.report) =
  let impl = impl_of r in
  r.O.o_verdict = O.Verified
  && impl.IP.ip_total = expect_vcs && impl.IP.ip_auto = expect_auto
  && impl.IP.ip_hinted = expect_hinted && impl.IP.ip_residual = 0
  && impl.IP.ip_timed_out = 0
  && r.O.o_refactor_steps = expect_steps && certified r = expect_steps
  && List.length r.O.o_lemmas = expect_lemmas && lemmas_ok r = expect_lemmas

let aes_run () =
  let config = aes_config (required "--run-dir") in
  let ready = Unix.gettimeofday () in
  if flag "--setup-only" then print_json (J.Obj [ ("ready", J.Float ready) ])
  else begin
    let t0 = Logic.Clock.now () in
    let r = O.run ~config Aes.Aes_echo.case_study in
    let verdict_s = Logic.Clock.elapsed t0 in
    let impl = impl_of r in
    print_json
      (J.Obj
         [ ("ready", J.Float ready);
           ("verdict_s", J.Float verdict_s);
           ("verdict", J.String (Fmt.str "%a" O.pp_verdict r.O.o_verdict));
           ("vcs", J.Int impl.IP.ip_total);
           ("auto", J.Int impl.IP.ip_auto);
           ("hinted", J.Int impl.IP.ip_hinted);
           ("residual", J.Int impl.IP.ip_residual);
           ("steps", J.Int r.O.o_refactor_steps);
           ("certified", J.Int (certified r));
           ("lemmas", J.Int (List.length r.O.o_lemmas));
           ("lemmas_ok", J.Int (lemmas_ok r));
           ("jobs", J.Int config.O.oc_jobs);
           ("cores", J.Int (Farm.Pool.visible_cores ()));
           ("vm_hwm_kb", J.Int (vm_hwm_kb (Unix.getpid ())));
           ("correct", J.Bool (known_answer r)) ])
  end

(* The traced run is the same [O.run] with benchmark-side hooks: [h_stage]
   marks each stage's entry (clock, Gc.quick_stat, simplifier passes) and
   [h_vcs] marks the vcgen/prove boundary inside the implementation proof,
   where the VCs of every subprogram are generated before any is proved.
   Stage times are the orchestrator's own [o_stages] figures; a stage's
   allocation runs from its entry mark to the next one.  Wrappers around
   the case study's refactor and annotate functions keep their results
   for the counters. *)
type mark = { m_t : float; m_gc : Gc.stat; m_passes : int }

let mark () =
  { m_t = Logic.Clock.now (); m_gc = Gc.quick_stat ();
    m_passes = Logic.Simplify.rewrite_passes () }

let alloc_mw a b =
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  (words b.m_gc -. words a.m_gc) /. 1e6

let aes_trace () =
  let run_dir = required "--run-dir" in
  let cs = Aes.Aes_echo.case_study in
  let entries = ref [] in
  let boundary = ref None in
  let vcs = ref [] in
  let history = ref None in
  let annotated = ref None in
  let hooks =
    { O.no_hooks with
      O.h_stage = (fun s -> entries := (s, mark ()) :: !entries);
      h_vcs =
        (fun l ->
          if !boundary = None then boundary := Some (mark ());
          vcs := List.rev_append l !vcs;
          l) }
  in
  let traced =
    { cs with
      Echo.Pipeline.cs_refactor =
        (fun ?certify () ->
          let (_, h) as r = cs.Echo.Pipeline.cs_refactor ?certify () in
          history := Some h;
          r);
      cs_annotate =
        (fun p ->
          let a = cs.Echo.Pipeline.cs_annotate p in
          annotated := Some a;
          a) }
  in
  let config = { (aes_config run_dir) with O.oc_hooks = hooks } in
  let t0 = Logic.Clock.now () in
  let r = O.run ~config traced in
  let wall = Logic.Clock.elapsed t0 in
  let last = mark () in
  let impl = impl_of r in
  let history = Option.get !history in
  let cstats = Refactor.History.certification_stats history in
  let stage_s s =
    match List.assoc_opt s r.O.o_stages with
    | Some (O.St_ok { st_time; _ }) -> st_time
    | _ -> 0.0
  in
  let at s = List.assoc s !entries in
  (* the entry of the next stage that ran, or the end of the run *)
  let next s =
    List.fold_left
      (fun (i, m) (s', m') ->
        let i' = CK.stage_index s' in
        if i' > CK.stage_index s && i' < i then (i', m') else (i, m))
      (max_int, last) !entries
    |> snd
  in
  let b = Option.get !boundary in
  let vcgen_s = b.m_t -. (at CK.S_impl).m_t in
  let span name s a z = (name, J.Obj [ ("s", J.Float s); ("alloc_mw", J.Float (alloc_mw a z)) ]) in
  let whole name stage = span name (stage_s stage) (at stage) (next stage) in
  (* probes, outside the traced wall: one more save of the index the run
     wrote, and a sequential prover pass for its deterministic step count *)
  let cache = Farm.Cache.open_ ~dir:(Filename.concat run_dir "proof-cache") in
  let t_save = Logic.Clock.now () in
  ignore (Farm.Cache.save cache);
  let save_s = Logic.Clock.elapsed t_save in
  let env, checked = Typecheck.check (Option.get !annotated) in
  let cfg =
    { Logic.Prover.default_config with
      Logic.Prover.interp = Some (IP.interp_of env checked);
      max_steps = config.O.oc_max_steps }
  in
  let prover_steps =
    List.fold_left
      (fun acc vc ->
        acc + (Logic.Prover.prove_vc ~cfg ~hints:IP.standard_hints vc).Logic.Prover.pr_steps)
      0 (List.rev !vcs)
  in
  let proved = List.filter (fun r -> not r.IP.vr_cached) impl.IP.ip_results in
  let busy = List.fold_left (fun acc r -> acc +. r.IP.vr_time) 0.0 proved in
  let tail = List.fold_left (fun acc r -> Float.max acc r.IP.vr_time) 0.0 proved in
  print_json
    (J.Obj
       [ ("wall_s", J.Float wall);
         ( "spans",
           J.Obj
             [ whole "refactor" CK.S_refactor;
               whole "certify-gate" CK.S_certify;
               whole "annotate" CK.S_annotate;
               span "vcgen" vcgen_s (at CK.S_impl) b;
               span "prove" (stage_s CK.S_impl -. vcgen_s) b (next CK.S_impl);
               whole "extract" CK.S_extract;
               whole "implication" CK.S_implication ] );
         ("jobs", J.Int config.O.oc_jobs);
         ("cores", J.Int (Farm.Pool.visible_cores ()));
         ( "counts",
           J.Obj
             [ ("refactor.steps", J.Int r.O.o_refactor_steps);
               ("certify.oracle_trials", J.Int cstats.Refactor.Certify.ct_oracle_trials);
               ("certify.vcs", J.Int cstats.Refactor.Certify.ct_vcs_generated);
               ("vcgen.vcs", J.Int (List.length !vcs));
               ("vcgen.nodes", J.Int impl.IP.ip_generated_nodes);
               ("prover.attempts", J.Int impl.IP.ip_attempts);
               ("prover.steps", J.Int prover_steps);
               ("simplify.passes", J.Int ((next CK.S_impl).m_passes - (at CK.S_impl).m_passes));
               ("implication.lemmas", J.Int (List.length r.O.o_lemmas));
               ("cache.entries", J.Int (Farm.Cache.size cache)) ] );
         ("certify.vc_s", J.Float cstats.Refactor.Certify.ct_vc_seconds);
         ("certify.oracle_s", J.Float cstats.Refactor.Certify.ct_oracle_seconds);
         ("prover.busy_s", J.Float busy);
         ("prover.tail_s", J.Float tail);
         ("cache.save_s", J.Float save_s);
         ("correct", J.Bool (known_answer r)) ])

(* ------------------------------------------------------------------ *)
(* calibration                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed piece of work that uses nothing from the library, so no change
   to the program can move it: maps, strings, a hash table and a sort,
   allocating as the verifier does.  Its time tracks how fast the host
   runs OCaml at that moment. *)
let calibration_unit () =
  let module M = Map.Make (Int) in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let m = ref M.empty in
  for _ = 1 to 60_000 do
    let k = next () in
    m := M.add k (string_of_int k) !m
  done;
  let h = Hashtbl.create 1024 in
  M.iter (fun k v -> Hashtbl.replace h v k) !m;
  List.length (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []))

let calibrate () =
  let units = int_arg "--units" in
  let times =
    List.init units (fun _ ->
        let t0 = Logic.Clock.now () in
        ignore (Sys.opaque_identity (calibration_unit ()));
        J.Float (Logic.Clock.elapsed t0))
  in
  print_json (J.Obj [ ("unit_s", J.List times) ])

(* [units] calibration units timed in a fresh process, as run.py times
   them around the aes-oneshot pipelines *)
let calibration_probe units =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "calibrate"; "--units"; string_of_int units |] in
  let line = Fun.protect ~finally:(fun () -> ignore (Unix.close_process_in ic)) (fun () -> input_line ic) in
  match J.of_string line with
  | Ok j -> (
      match J.member "unit_s" j with
      | Some (J.List l) -> List.map (function J.Float u -> u | _ -> failwith "calibration") l
      | _ -> failwith "calibration: no unit_s")
  | Error e -> failwith ("calibration: " ^ e)

(* ------------------------------------------------------------------ *)
(* serve-edit-stream                                                    *)
(* ------------------------------------------------------------------ *)

let verdict_keys (results : Echo.Verify.vc_summary list) =
  List.map
    (fun (s : Echo.Verify.vc_summary) ->
      (s.Echo.Verify.vs_sub, s.Echo.Verify.vs_name, s.Echo.Verify.vs_status))
    results
  |> List.sort compare

(* One-shot references, computed before the stream starts: each pool
   program through [Echo.Verify.run] with no cache and no baseline.  They
   run in forked children, [width] at a time; building the pool spawns no
   domain, so the forks are legal. *)
let references ~width (pool : Stream.pool) =
  let n = Array.length pool.Stream.programs in
  let refs = Array.make n ("", []) in
  let children =
    List.init width (fun w ->
        let rd, wr = Unix.pipe ~cloexec:true () in
        match Unix.fork () with
        | 0 -> (
            try
              Unix.close rd;
              let mine = ref [] in
              Array.iteri
                (fun i (p : Stream.program) ->
                  if i mod width = w then begin
                    let o = Echo.Verify.run ~source:p.Stream.pg_source () in
                    mine :=
                      (i, (Echo.Verify.verdict_string o.Echo.Verify.vj_verdict,
                           verdict_keys o.Echo.Verify.vj_results))
                      :: !mine
                  end)
                pool.Stream.programs;
              let oc = Unix.out_channel_of_descr wr in
              Marshal.to_channel oc !mine [];
              close_out oc;
              Unix._exit 0
            with _ -> Unix._exit 1)
        | pid ->
            Unix.close wr;
            (pid, rd))
  in
  List.iter
    (fun (pid, rd) ->
      let ic = Unix.in_channel_of_descr rd in
      let mine : (int * (string * (string * string * string) list)) list =
        Marshal.from_channel ic
      in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "reference worker failed");
      List.iter (fun (i, r) -> refs.(i) <- r) mine)
    children;
  refs

(* The revision comment leaves the program unchanged, so the reference of
   a pool program is the reference of every job text built from it. *)
let check_revision_invariance (pool : Stream.pool) =
  Array.for_all
    (fun (p : Stream.program) ->
      let printed s = Pretty.program_to_string (Parser.of_string s) in
      printed p.Stream.pg_source
      = printed (p.Stream.pg_source ^ Stream.revision_tag ~session:0 ~step:1))
    pool.Stream.programs

(* utime + stime of a process, in seconds (/proc reports USER_HZ = 100) *)
let cpu_of_pid pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      (* the command name may hold spaces: fields restart after ')' *)
      let rest =
        String.sub line (String.rindex line ')' + 2)
          (String.length line - String.rindex line ')' - 2)
      in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let children_of pid =
  Sys.readdir "/proc"
  |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some child -> (
             match open_in (Printf.sprintf "/proc/%d/stat" child) with
             | exception Sys_error _ -> None
             | ic ->
                 let line =
                   Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                       try input_line ic with End_of_file -> "")
                 in
                 match String.rindex_opt line ')' with
                 | None -> None
                 | Some k ->
                     let f =
                       String.split_on_char ' '
                         (String.sub line (k + 2) (String.length line - k - 2))
                     in
                     if List.nth_opt f 1 = Some (string_of_int pid) then Some child
                     else None))

type record = {
  r_job : Stream.job;
  r_submit : float;
  mutable r_accepted : float;
  mutable r_first_stage : float;
  mutable r_stages : (string * float) list;  (* worker-reported seconds *)
  mutable r_verdict : float;
  mutable r_outcome : Serve.Protocol.wire_outcome option;
  mutable r_dedup : bool;
  mutable r_rejected : string option;
}

(* What the stream needs, written by [serve-pool] and read by [serve]:
   the pool, each program's one-shot reference, and whether the revision
   comment left every program unchanged. *)
type inputs = {
  in_pool : Stream.pool;
  in_refs : (string * (string * string * string) list) array;
  in_invariant : bool;
}

let inputs_file work = Filename.concat work "inputs.bin"

(* Building the pool runs the AES refactoring, annotation, VC generation
   and defect seeding, which fill the library's interning tables and
   memos.  A daemon forked from that heap would start its workers warm
   and large, so the pool is built here, in a process of its own, and
   [serve] starts from a clean heap and only reads the sources. *)
let serve_pool () =
  let work = required "--work-dir" in
  let pool = Stream.build_pool () in
  let inputs =
    { in_pool = pool;
      in_refs = references ~width:(Farm.Pool.visible_cores ()) pool;
      in_invariant = check_revision_invariance pool }
  in
  let oc = open_out_bin (inputs_file work) in
  Marshal.to_channel oc inputs [];
  close_out oc;
  print_json
    (J.Obj
       [ ("programs", J.Int (Array.length pool.Stream.programs));
         ("invariant", J.Bool inputs.in_invariant) ])

let serve () =
  let seed = int_arg "--seed" in
  let seconds = float_of_string (required "--seconds") in
  let min_jobs = int_arg "--min-jobs" in
  let segments = int_arg "--segments" in
  let cal_units = int_arg "--cal-units" in
  let setups = int_arg "--setups" in
  let trace = required "--trace" = "1" in
  let work = required "--work-dir" in
  let { in_pool = pool; in_refs = refs; in_invariant = invariant } =
    let ic = open_in_bin (inputs_file work) in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> (Marshal.from_channel ic : inputs))
  in
  let cores = Farm.Pool.visible_cores () in
  let sessions = 2 * cores in
  let daemon_config i =
    let dir name =
      let d = Filename.concat work (Printf.sprintf "%s-%d" name i) in
      Unix.mkdir d 0o700;
      d
    in
    { Serve.Daemon.default_config with
      Serve.Daemon.dc_jobs = cores;
      dc_cache_dir = Some (dir "cache");
      dc_state_dir = Some (dir "state") }
  in
  let clean_spec =
    Serve.Protocol.job ~id:Stream.clean_job_id ~jobs:1
      ~source:pool.Stream.programs.(Stream.clean).Stream.pg_source ()
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* set-up: daemon boot plus the cold verification of the clean source,
     which fills the shared proof cache; the last one serves the stream *)
  let setup cl t0 =
    match Serve.Client.run_job cl clean_spec with
    | Ok (w, _, _) ->
        let dt = Logic.Clock.now () -. t0 in
        if verdict_keys w.Serve.Protocol.w_results <> snd refs.(Stream.clean) then
          fail "clean set-up job disagrees with its one-shot reference";
        dt
    | Error e -> failwith ("set-up job rejected: " ^ e)
  in
  let setup_s =
    List.init (setups - 1) (fun i ->
        let t0 = Logic.Clock.now () in
        Serve.Client.with_daemon ~config:(daemon_config i) (fun cl -> setup cl t0))
  in
  let t_last = Logic.Clock.now () in
  let result =
    Serve.Client.with_daemon ~config:(daemon_config (setups - 1)) (fun cl ->
        let last_setup = setup cl t_last in
        let daemon = Option.get (Serve.Client.daemon_pid cl) in
        let tree_cpu () =
          List.fold_left (fun acc p -> acc +. cpu_of_pid p) (cpu_of_pid daemon)
            (children_of daemon)
        in
        let self_cpu () =
          let t = Unix.times () in
          t.Unix.tms_utime +. t.Unix.tms_stime
        in
        let cpu () = tree_cpu () +. self_cpu () in
        let ss = Array.init sessions (Stream.session ~seed) in
        let live = Hashtbl.create 64 in
        let finished = ref [] in
        let n_finished = ref 0 in
        (* the daemon keeps every outcome it served, so its heap grows with
           the jobs run: the high-water mark is read at a fixed job count,
           or a faster stream would read as a larger one *)
        let rss_kb = ref 0 in
        let peak_rss_kb () =
          List.fold_left (fun acc p -> max acc (vm_hwm_kb p)) (vm_hwm_kb daemon)
            (children_of daemon)
        in
        let submit s =
          let j = Stream.next pool s in
          let spec =
            Serve.Protocol.job ~id:j.Stream.jb_id ~jobs:1
              ?baseline_job:j.Stream.jb_baseline ~source:j.Stream.jb_source ()
          in
          Hashtbl.replace live j.Stream.jb_id
            ( s,
              { r_job = j; r_submit = Logic.Clock.now (); r_accepted = nan;
                r_first_stage = nan; r_stages = []; r_verdict = nan;
                r_outcome = None; r_dedup = false;
                r_rejected = None } );
          match Serve.Client.request cl (Serve.Protocol.Submit spec) with
          | Ok () -> ()
          | Error e -> failwith ("submit: " ^ e)
        in
        (* a verdict submits the session's next job until [t_stop], and
           past it while fewer than [reach] verdicts have arrived *)
        let t_stop = ref 0.0 and reach = ref 0 in
        let close id t =
          match Hashtbl.find_opt live id with
          | None -> ()
          | Some (s, r) ->
              r.r_verdict <- t;
              Hashtbl.remove live id;
              finished := r :: !finished;
              incr n_finished;
              if !n_finished = min_jobs then rss_kb := peak_rss_kb ();
              if t < !t_stop || !n_finished < !reach then submit s
        in
        (* One segment of the stream: every session submits, the loop runs
           for its share of [seconds], then drains.  The last segment runs
           on until [min_jobs] verdicts, so the p95 always has enough
           samples beyond it.  Returns the segment's seconds and CPU. *)
        let segment k =
          let t0 = Logic.Clock.now () and c0 = cpu () in
          t_stop := t0 +. (seconds /. float_of_int segments);
          reach := if k = segments - 1 then min_jobs else 0;
          Array.iter submit ss;
          while Hashtbl.length live > 0 do
            match Serve.Client.next_event ~timeout_s:120.0 cl with
            | Error e -> failwith ("stream: " ^ e)
            | Ok ev -> (
                let t = Logic.Clock.now () in
                match ev with
                | Serve.Protocol.Verdict { ev_job; ev_outcome; ev_dedup; _ } ->
                    (match Hashtbl.find_opt live ev_job with
                    | Some (_, r) ->
                        r.r_outcome <- Some ev_outcome;
                        r.r_dedup <- ev_dedup
                    | None -> ());
                    close ev_job t
                | Serve.Protocol.Rejected { ev_job; ev_reason } ->
                    (match Hashtbl.find_opt live ev_job with
                    | Some (_, r) -> r.r_rejected <- Some ev_reason
                    | None -> ());
                    close ev_job t
                | Serve.Protocol.Accepted { ev_job; _ } when trace -> (
                    match Hashtbl.find_opt live ev_job with
                    | Some (_, r) -> r.r_accepted <- t
                    | None -> ())
                | Serve.Protocol.Stage { ev_job; ev_stage; ev_phase; _ } when trace -> (
                    (* the worker started no later than any stage-start
                       event's arrival, nor than any stage's end minus its
                       seconds: the earliest bound trims event delivery lag *)
                    let earliest r bound =
                      if Float.is_nan r.r_first_stage || bound < r.r_first_stage then
                        r.r_first_stage <- bound
                    in
                    match (Hashtbl.find_opt live ev_job, ev_phase) with
                    | Some (_, r), Serve.Protocol.P_start -> earliest r t
                    | Some (_, r), Serve.Protocol.P_ok s ->
                        earliest r (t -. s);
                        r.r_stages <- (ev_stage, s) :: r.r_stages
                    | _ -> ())
                | _ -> ())
          done;
          (Logic.Clock.now () -. t0, cpu () -. c0)
        in
        (* the host's speed is sampled before, between and after the
           segments, while no job is in flight *)
        let cal = ref (calibration_probe cal_units) in
        let active_s = ref 0.0 and cpu_s = ref 0.0 in
        for k = 0 to segments - 1 do
          let dt, dc = segment k in
          active_s := !active_s +. dt;
          cpu_s := !cpu_s +. dc;
          cal := !cal @ calibration_probe cal_units
        done;
        let stats =
          match Serve.Client.stats cl with
          | Ok st -> st
          | Error e -> failwith ("stats: " ^ e)
        in
        (last_setup, !active_s, !cpu_s, !cal, List.rev !finished, !rss_kb, stats))
  in
  let last_setup, active_s, cpu_s, cal, records, rss_kb, stats = result in
  let setup_s = setup_s @ [ last_setup ] in
  if not invariant then fail "a revision comment changed a pool program";
  let job_json r =
    let j = r.r_job in
    let ok =
      match (r.r_rejected, r.r_outcome) with
      | Some why, _ ->
          fail "%s rejected: %s" j.Stream.jb_id why;
          false
      | None, None ->
          fail "%s: no verdict" j.Stream.jb_id;
          false
      | None, Some w ->
          let verdict, keys = refs.(j.Stream.jb_program) in
          let same =
            w.Serve.Protocol.w_verdict = verdict
            && verdict_keys w.Serve.Protocol.w_results = keys
          in
          if not same then
            fail "%s (%s) disagrees with the one-shot reference" j.Stream.jb_id
              (Stream.kind_name j.Stream.jb_kind);
          same && w.Serve.Protocol.w_verdict <> "failed"
    in
    let w = r.r_outcome in
    let get f = match w with Some w -> f w | None -> 0 in
    let reproved =
      match w with
      | Some w ->
          List.filter (fun (s : Echo.Verify.vc_summary) -> not s.Echo.Verify.vs_cached)
            w.Serve.Protocol.w_results
      | None -> []
    in
    J.Obj
      [ ("id", J.String j.Stream.jb_id);
        ("kind", J.String (Stream.kind_name j.Stream.jb_kind));
        ("ok", J.Bool ok);
        ("dedup", J.Bool r.r_dedup);
        ("latency_s", J.Float (r.r_verdict -. r.r_submit));
        ( "queue_s",
          if Float.is_nan r.r_first_stage || Float.is_nan r.r_accepted then J.Null
          else J.Float (r.r_first_stage -. r.r_accepted) );
        ("stages", J.Obj (List.rev_map (fun (n, s) -> (n, J.Float s)) r.r_stages));
        ("vcs", J.Int (get (fun w -> w.Serve.Protocol.w_total)));
        ("carried", J.Int (get (fun w -> w.Serve.Protocol.w_carried)));
        ("cache_hits", J.Int (get (fun w -> w.Serve.Protocol.w_cache_hits)));
        ("cache_misses", J.Int (get (fun w -> w.Serve.Protocol.w_cache_misses)));
        ("reproved", J.Int (List.length reproved));
        ( "prover_attempts",
          J.Int
            (List.fold_left
               (fun acc (s : Echo.Verify.vc_summary) -> acc + s.Echo.Verify.vs_attempts)
               0 reproved) ) ]
  in
  let jobs = List.map job_json records in
  print_json
    (J.Obj
       [ ("cores", J.Int cores);
         ("sessions", J.Int sessions);
         ("workers", J.Int cores);
         ("setup_s", J.List (List.map (fun s -> J.Float s) setup_s));
         ("segments", J.Int segments);
         ("active_s", J.Float active_s);
         ("cpu_s", J.Float cpu_s);
         ("cal_unit_s", J.List (List.map (fun u -> J.Float u) cal));
         ("peak_rss_kb", J.Int rss_kb);
         ("retries", J.Int stats.Serve.Protocol.st_retries);
         ("worker_crashes", J.Int stats.Serve.Protocol.st_worker_crashes);
         ("failures", J.List (List.rev_map (fun s -> J.String s) !failures));
         ("jobs", J.List jobs) ])

let gen () =
  let seed = int_arg "--seed" in
  let sessions = int_arg "--sessions" in
  let steps = int_arg "--steps" in
  print_string (Stream.describe ~seed ~sessions ~steps (Stream.build_pool ()))

let () =
  match Array.to_list Sys.argv with
  | _ :: "aes-run" :: _ -> aes_run ()
  | _ :: "aes-trace" :: _ -> aes_trace ()
  | _ :: "serve-pool" :: _ -> serve_pool ()
  | _ :: "serve" :: _ -> serve ()
  | _ :: "gen" :: _ -> gen ()
  | _ :: "calibrate" :: _ -> calibrate ()
  | _ ->
      prerr_endline "usage: echo_bench (aes-run|aes-trace|serve-pool|serve|gen|calibrate) ...";
      exit 2
