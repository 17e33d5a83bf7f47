(* Tests for the proof farm: the work-stealing domain pool, the
   persistent content-addressed proof cache, and their integration with
   the implementation proof.

   The determinism contract is the load-bearing invariant: for the same
   VC set, verdicts (and their order) are identical whatever [--jobs] is
   and whether the cache is cold or warm.  The CI matrix exercises this
   with ECHO_JOBS=1 and ECHO_JOBS=4; locally we default to 4. *)

open Minispark
module F = Logic.Formula
module IP = Echo.Implementation_proof

(* CI matrix knob: ECHO_JOBS selects the parallel width under test *)
let test_jobs =
  match Sys.getenv_opt "ECHO_JOBS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

let temp_dir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "echo-farm-%s-%d" tag (Unix.getpid ()))
  in
  (* stale state from a previous run of the same pid namespace *)
  if Sys.file_exists d then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
  d

(* ---------------- pool ---------------- *)

let test_pool_matches_sequential () =
  let items = Array.init 97 (fun i -> i) in
  let f x = x * x + 1 in
  let seq = Array.map f items in
  let par, stats =
    Farm.Pool.run ~jobs:4 ~priority:(fun x -> x) ~f items
  in
  Alcotest.(check (array int)) "results in generation order" seq par;
  Alcotest.(check int) "all jobs ran" 97 stats.Farm.Pool.ps_jobs;
  Alcotest.(check bool) "worker count clamped sanely" true
    (stats.Farm.Pool.ps_workers >= 1 && stats.Farm.Pool.ps_workers <= 4)

let test_pool_inline_path () =
  let items = Array.init 10 (fun i -> i) in
  (* width 1 spawns no domain: every job runs on the caller, in input
     order (certification's width-1 schedule relies on it) *)
  let caller = Domain.self () and order = ref [] in
  let f x =
    if Domain.self () <> caller then Alcotest.fail "a job left the calling domain";
    order := x :: !order;
    succ x
  in
  let r, stats = Farm.Pool.run ~jobs:1 ~priority:(fun x -> x) ~f items in
  Alcotest.(check (list int)) "input order" (Array.to_list items) (List.rev !order);
  Alcotest.(check (array int)) "inline results" (Array.map succ items) r;
  Alcotest.(check int) "one worker" 1 stats.Farm.Pool.ps_workers;
  Alcotest.(check int) "no steals inline" 0 stats.Farm.Pool.ps_steals

let test_pool_empty_and_single () =
  let r, _ = Farm.Pool.run ~jobs:4 ~priority:(fun _ -> 0) ~f:succ [||] in
  Alcotest.(check (array int)) "empty input" [||] r;
  let r1, _ = Farm.Pool.run ~jobs:4 ~priority:(fun _ -> 0) ~f:succ [| 41 |] in
  Alcotest.(check (array int)) "single job" [| 42 |] r1

exception Boom of int

let test_pool_propagates_exception () =
  let items = Array.init 40 (fun i -> i) in
  match
    Farm.Pool.run ~jobs:4 ~priority:(fun x -> x)
      ~f:(fun x -> if x = 17 then raise (Boom x) else x)
      items
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Boom 17 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_pool_heavy_jobs_balance () =
  (* skewed costs: with stealing, 4 domains must still return every
     result, in order, whatever the interleaving *)
  let items = Array.init 64 (fun i -> i) in
  let cost x = if x mod 16 = 0 then 1_000_000 else 100 in
  let f x =
    let n = cost x in
    let acc = ref 0 in
    for i = 1 to n do acc := (!acc + (i * x)) mod 7919 done;
    (x, !acc)
  in
  let seq = Array.map f items in
  let par, _ = Farm.Pool.run ~jobs:4 ~priority:cost ~f items in
  Alcotest.(check bool) "skewed workload results identical" true (seq = par)

(* jobs submitted while the pool runs: the helpers start on them before
   [close], results come back in submission order across batches, a
   failing job in a later batch is re-raised at [close], and at width 1
   nothing runs before [close] *)
let test_pool_streamed_batches () =
  let started = Atomic.make 0 in
  let f x =
    Atomic.incr started;
    x * 10
  in
  let p = Farm.Pool.create ~jobs:2 ~priority:(fun x -> x) ~f () in
  Farm.Pool.submit p [| 1; 2; 3 |];
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get started < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "the helper ran the first batch before close" 3 (Atomic.get started);
  Farm.Pool.submit p [| 4; 5 |];
  Farm.Pool.submit p [||];
  Farm.Pool.submit p [| 6 |];
  let r, stats = Farm.Pool.close p in
  Alcotest.(check (array int)) "submission order" [| 10; 20; 30; 40; 50; 60 |] r;
  Alcotest.(check int) "every job ran" 6 stats.Farm.Pool.ps_jobs;
  (match Farm.Pool.submit p [| 7 |] with
  | () -> Alcotest.fail "a closed pool took a batch"
  | exception Invalid_argument _ -> ());
  let p = Farm.Pool.create ~jobs:2 ~priority:(fun _ -> 0)
      ~f:(fun x -> if x = 3 then raise (Boom x) else x) () in
  Farm.Pool.submit p [| 1; 2 |];
  Farm.Pool.submit p [| 3; 4 |];
  (match Farm.Pool.close p with
  | _ -> Alcotest.fail "expected the streamed job's exception at close"
  | exception Boom 3 -> ());
  let ran = ref 0 in
  let p = Farm.Pool.create ~jobs:1 ~priority:(fun _ -> 0) ~f:(fun x -> incr ran; x) () in
  Farm.Pool.submit p [| 1; 2 |];
  Alcotest.(check int) "width 1: nothing before close" 0 !ran;
  let r, stats = Farm.Pool.close p in
  Alcotest.(check (array int)) "width 1: results" [| 1; 2 |] r;
  Alcotest.(check int) "width 1: one worker" 1 stats.Farm.Pool.ps_workers

(* ---------------- cache ---------------- *)

let entry_testable : Farm.Cache.entry Alcotest.testable =
  Alcotest.testable
    (fun ppf (e : Farm.Cache.entry) ->
      Fmt.pf ppf "{attempts=%d; time=%.3f}" e.Farm.Cache.en_attempts e.Farm.Cache.en_time)
    ( = )

let test_cache_roundtrip () =
  let dir = temp_dir "roundtrip" in
  let c = Farm.Cache.open_ ~dir in
  Alcotest.(check int) "fresh cache empty" 0 (Farm.Cache.size c);
  let e1 = { Farm.Cache.en_status = Farm.Cache.E_auto; en_attempts = 1; en_time = 0.25 } in
  let e2 = { Farm.Cache.en_status = Farm.Cache.E_hinted 2; en_attempts = 3; en_time = 1.5 } in
  let e3 =
    { Farm.Cache.en_status = Farm.Cache.E_residual "store \"chain\"\nleft";
      en_attempts = 4; en_time = 0.0 }
  in
  Farm.Cache.add c "k1" e1;
  Farm.Cache.add c "k2" e2;
  Farm.Cache.add c "k3" e3;
  (match Farm.Cache.save c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  let c' = Farm.Cache.open_ ~dir in
  Alcotest.(check int) "reloaded size" 3 (Farm.Cache.size c');
  Alcotest.(check (option entry_testable)) "auto entry" (Some e1) (Farm.Cache.lookup c' "k1");
  Alcotest.(check (option entry_testable)) "hinted entry" (Some e2) (Farm.Cache.lookup c' "k2");
  Alcotest.(check (option entry_testable)) "residual entry (escaped)" (Some e3)
    (Farm.Cache.lookup c' "k3");
  Alcotest.(check (option entry_testable)) "missing key" None (Farm.Cache.lookup c' "k9")

let test_cache_tolerates_garbage () =
  let dir = temp_dir "garbage" in
  let c = Farm.Cache.open_ ~dir in
  Farm.Cache.add c "good"
    { Farm.Cache.en_status = Farm.Cache.E_auto; en_attempts = 1; en_time = 0.1 };
  (match Farm.Cache.save c with Ok () -> () | Error e -> Alcotest.failf "save: %s" e);
  (* corrupt the index with trailing garbage: the good entry must survive,
     the bad lines must be skipped, nothing may raise *)
  let index = Filename.concat dir "index.jsonl" in
  let oc = open_out_gen [ Open_append ] 0o644 index in
  output_string oc "not json at all\n{\"half\": \n";
  close_out oc;
  let c' = Farm.Cache.open_ ~dir in
  Alcotest.(check int) "good entry survives garbage" 1 (Farm.Cache.size c');
  (* a wrong format header empties the cache rather than misreading it *)
  let oc = open_out index in
  output_string oc "proof-cache v0-ancient\n{\"key\": \"good\"}\n";
  close_out oc;
  let c'' = Farm.Cache.open_ ~dir in
  Alcotest.(check int) "foreign version ignored wholesale" 0 (Farm.Cache.size c'')

let test_cache_merges_on_save () =
  (* two handles on one directory: saving the second must not clobber the
     first's entries (resume-style merge) *)
  let dir = temp_dir "merge" in
  let a = Farm.Cache.open_ ~dir in
  Farm.Cache.add a "ka"
    { Farm.Cache.en_status = Farm.Cache.E_auto; en_attempts = 1; en_time = 0.1 };
  (match Farm.Cache.save a with Ok () -> () | Error e -> Alcotest.failf "save a: %s" e);
  let b = Farm.Cache.open_ ~dir in
  Farm.Cache.add b "kb"
    { Farm.Cache.en_status = Farm.Cache.E_hinted 1; en_attempts = 2; en_time = 0.2 };
  (match Farm.Cache.save b with Ok () -> () | Error e -> Alcotest.failf "save b: %s" e);
  let c = Farm.Cache.open_ ~dir in
  Alcotest.(check int) "both entries present" 2 (Farm.Cache.size c)

let auto_entry = { Farm.Cache.en_status = Farm.Cache.E_auto; en_attempts = 1; en_time = 0.1 }

let save_ok what c =
  match Farm.Cache.save c with Ok () -> () | Error e -> Alcotest.failf "save %s: %s" what e

let test_refresh_skips_unchanged_index () =
  let dir = temp_dir "refresh-same" in
  let a = Farm.Cache.open_ ~dir in
  Farm.Cache.add a "ka" auto_entry;
  save_ok "a" a;
  Alcotest.(check int) "own save: nothing to gain" 0 (Farm.Cache.refresh a);
  let b = Farm.Cache.open_ ~dir in
  Alcotest.(check int) "unchanged since open" 0 (Farm.Cache.refresh b);
  Alcotest.(check int) "still unchanged" 0 (Farm.Cache.refresh b);
  Alcotest.(check int) "b holds a's entry" 1 (Farm.Cache.size b)

let test_refresh_sees_sibling_save () =
  let dir = temp_dir "refresh-sibling" in
  let a = Farm.Cache.open_ ~dir and b = Farm.Cache.open_ ~dir in
  Farm.Cache.add a "ka" auto_entry;
  save_ok "a" a;
  Alcotest.(check int) "b gains a's first entry" 1 (Farm.Cache.refresh b);
  Farm.Cache.add a "kb" auto_entry;
  save_ok "a again" a;
  Alcotest.(check int) "b gains a's second entry" 1 (Farm.Cache.refresh b);
  Alcotest.(check bool) "and can look it up" true (Farm.Cache.lookup b "kb" <> None);
  Farm.Cache.add b "kc" auto_entry;
  save_ok "b" b;
  Alcotest.(check int) "a gains b's entry" 1 (Farm.Cache.refresh a);
  Alcotest.(check int) "a holds all three" 3 (Farm.Cache.size a)

(* ---------------- integration with the implementation proof ---------------- *)

(* a program whose VCs exercise auto and hinted rungs *)
let farm_src =
  {|
program farmtest is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

  procedure swap (a : in out byte; b : in out byte)
  --# post a = b~ and b = a~;
  is
    t : byte;
  begin
    t := a;
    a := b;
    b := t;
  end swap;

  procedure fill (v : out vec)
  --# post (for all k in 0 .. 7 => v (k) = 0);
  is
  begin
    for i in 0 .. 7
    --# invariant (for all k in 0 .. i - 1 => v (k) = 0);
    loop
      v (i) := 0;
    end loop;
  end fill;

  procedure mask (src : in vec; dst : out vec; m : in byte)
  --# post (for all k in 0 .. 7 => dst (k) = (src (k) xor m));
  is
  begin
    for i in 0 .. 7
    --# invariant (for all k in 0 .. i - 1 => dst (k) = (src (k) xor m));
    loop
      dst (i) := src (i) xor m;
    end loop;
  end mask;

end farmtest;
|}

let farm_program = lazy (Typecheck.check (Parser.of_string farm_src))

let result_key (vr : IP.vc_result) =
  let status =
    match vr.IP.vr_status with
    | IP.Auto -> "auto"
    | IP.Hinted n -> Printf.sprintf "hinted:%d" n
    | IP.Residual r -> "residual:" ^ r
    | IP.Timed_out _ -> "timed-out"
    | IP.Discharged -> "discharged"
  in
  (vr.IP.vr_vc.F.vc_name, status, vr.IP.vr_attempts)

let test_farm_matches_sequential_proof () =
  let env, prog = Lazy.force farm_program in
  let seq = IP.run env prog in
  let par = IP.run ~jobs:test_jobs env prog in
  Alcotest.(check bool) "has VCs" true (seq.IP.ip_total > 0);
  Alcotest.(check (list (triple string string int))) "per-VC verdicts identical"
    (List.map result_key seq.IP.ip_results)
    (List.map result_key par.IP.ip_results);
  Alcotest.(check int) "attempt totals identical" seq.IP.ip_attempts par.IP.ip_attempts

let test_cold_then_warm_cache () =
  let env, prog = Lazy.force farm_program in
  let dir = temp_dir "proofcache" in
  let cold = IP.run ~cache:(Farm.Cache.open_ ~dir) env prog in
  Alcotest.(check int) "cold run has no hits" 0 cold.IP.ip_cache_hits;
  Alcotest.(check bool) "cold run has misses" true (cold.IP.ip_cache_misses > 0);
  let warm = IP.run ~jobs:test_jobs ~cache:(Farm.Cache.open_ ~dir) env prog in
  (* every provable/residual VC replays; only timed-out ones (none here)
     and discharged ones bypass the cache *)
  Alcotest.(check int) "warm run all hits" cold.IP.ip_cache_misses warm.IP.ip_cache_hits;
  Alcotest.(check int) "warm run no misses" 0 warm.IP.ip_cache_misses;
  Alcotest.(check (list (triple string string int))) "warm verdicts identical"
    (List.map result_key cold.IP.ip_results)
    (List.map result_key warm.IP.ip_results);
  List.iter
    (fun (vr : IP.vc_result) ->
      if vr.IP.vr_cached then
        Alcotest.(check (float 0.0)) "cached results bill zero time" 0.0 vr.IP.vr_time)
    warm.IP.ip_results;
  Alcotest.(check bool) "warm run flags cached results" true
    (List.exists (fun (vr : IP.vc_result) -> vr.IP.vr_cached) warm.IP.ip_results)

let index_stamp dir =
  let st = Unix.stat (Filename.concat dir "index.jsonl") in
  (st.Unix.st_ino, st.Unix.st_mtime)

let test_index_written_only_on_add () =
  let env, prog = Lazy.force farm_program in
  let dir = temp_dir "index-writes" in
  (* fill the cache with every VC but one *)
  let held_back = (List.hd (Vcgen.all_vcs (Vcgen.generate env prog))).F.vc_name in
  let _ =
    IP.run
      ~filter_vcs:(List.filter (fun (vc : F.vc) -> vc.F.vc_name <> held_back))
      ~cache:(Farm.Cache.open_ ~dir) env prog
  in
  let filled = index_stamp dir in
  let one_miss = IP.run ~cache:(Farm.Cache.open_ ~dir) env prog in
  Alcotest.(check int) "the held-back VC misses" 1 one_miss.IP.ip_cache_misses;
  let rewritten = index_stamp dir in
  Alcotest.(check bool) "a run with a miss rewrites the index" true (rewritten <> filled);
  let warm = IP.run ~cache:(Farm.Cache.open_ ~dir) env prog in
  Alcotest.(check int) "warm run: no miss" 0 warm.IP.ip_cache_misses;
  Alcotest.(check bool) "warm run: every VC hits" true (warm.IP.ip_cache_hits > 0);
  Alcotest.(check (pair int (float 0.0))) "a run with no miss leaves inode and mtime"
    rewritten (index_stamp dir)

let test_cache_keying_isolates_programs () =
  (* a different program over the same cache directory must miss, not
     replay foreign proofs *)
  let env, prog = Lazy.force farm_program in
  let dir = temp_dir "keying" in
  let _ = IP.run ~cache:(Farm.Cache.open_ ~dir) env prog in
  let other_src =
    {|
program other is
  type byte is mod 256;
  procedure id (a : in out byte)
  --# post a = a~;
  is
  begin
    a := a;
  end id;
end other;
|}
  in
  let env2, prog2 = Typecheck.check (Parser.of_string other_src) in
  let r = IP.run ~cache:(Farm.Cache.open_ ~dir) env2 prog2 in
  Alcotest.(check int) "foreign program misses" 0 r.IP.ip_cache_hits

(* the (key, status) of every entry in a cache directory's index *)
let index_entries dir =
  let module J = Telemetry.Json in
  In_channel.with_open_text (Filename.concat dir "index.jsonl") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match J.of_string line with
         | Ok j -> (
             match (J.member "key" j, J.member "status" j) with
             | Some (J.String k), Some (J.String s) -> Some (k, s)
             | _ -> None)
         | Error _ -> None)

(* an entry that says the opposite of the one recorded *)
let contrary_entry status =
  { Farm.Cache.en_status =
      (if status = "residual" then Farm.Cache.E_auto
       else Farm.Cache.E_residual "recorded under an earlier key scheme");
    en_attempts = 1; en_time = 0.0 }

(* Keys carry the "pf6" scheme marker.  An entry recorded under an older
   marker is a miss: the VC is re-proved, never replayed, even where the
   old entry contradicts the proof.  "pf4" entries come from before
   quantifier instantiation was pattern-directed (when a VC could exhaust
   a step budget that today's search proves within), "pf5" entries from
   before a discharged instance's conjuncts became facts of their own. *)
let test_old_scheme_entries_miss old_marker () =
  let env, prog = Lazy.force farm_program in
  let signature marker =
    Printf.sprintf "%s;split=%d;steps=60000;hints=apply_hyp,induction" marker
      Logic.Prover.default_config.Logic.Prover.max_split
    |> Digest.string |> Digest.to_hex
  in
  let dir = temp_dir "scheme-pf6" in
  let cold = IP.run ~max_steps:60_000 ~cache:(Farm.Cache.open_ ~dir) env prog in
  let entries = index_entries dir in
  Alcotest.(check bool) "the cold run recorded entries" true (entries <> []);
  let old_dir = temp_dir ("scheme-" ^ old_marker) in
  let old = Farm.Cache.open_ ~dir:old_dir in
  List.iter
    (fun (key, status) ->
      match String.split_on_char ':' key with
      | digest :: base :: rest ->
          Alcotest.(check string) "the base signature is pf6's" (signature "pf6") base;
          Farm.Cache.add old
            (String.concat ":" (digest :: signature old_marker :: rest))
            (contrary_entry status)
      | _ -> Alcotest.failf "malformed cache key %s" key)
    entries;
  Alcotest.(check bool) (old_marker ^ " entries saved") true (Farm.Cache.save old = Ok ());
  let r = IP.run ~max_steps:60_000 ~cache:(Farm.Cache.open_ ~dir:old_dir) env prog in
  Alcotest.(check int) ("no " ^ old_marker ^ " entry hits") 0 r.IP.ip_cache_hits;
  Alcotest.(check int) "every VC misses" cold.IP.ip_cache_misses r.IP.ip_cache_misses;
  Alcotest.(check (list (triple string string int))) "re-proved, not replayed"
    (List.map result_key cold.IP.ip_results)
    (List.map result_key r.IP.ip_results)

(* a traced run at width 2 publishes the prover's and the simplifier's
   memo use, summed over the domains that proved *)
let test_worker_memos_reported () =
  let env, prog = Lazy.force farm_program in
  Telemetry.reset ();
  Telemetry.enable ();
  let counters =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        Telemetry.reset ())
      (fun () ->
        ignore (IP.run ~jobs:2 env prog);
        (Telemetry.snapshot ()).Telemetry.sn_counters)
  in
  let get c = Option.value ~default:0 (List.assoc_opt c counters) in
  List.iter
    (fun memo ->
      List.iter
        (fun s ->
          Alcotest.(check bool) (memo ^ s ^ " published") true
            (List.mem_assoc (memo ^ s) counters))
        [ "_hits"; "_misses"; "_evictions" ];
      Alcotest.(check bool) (memo ^ " consulted") true
        (get (memo ^ "_hits") + get (memo ^ "_misses") > 0))
    [ "prover_constraints_memo"; "simplify_memo" ]

(* VCs that need the prover's ground evaluation of a program function:
   each evaluation runs on its own runtime, so the statuses cannot depend
   on which worker domain evaluated what, or in which order *)
let test_ground_eval_jobs_agree () =
  let store k r =
    Printf.sprintf
      {|
  procedure store_%d (r : out byte)
  --# post r = square (%d);
  is
  begin
    r := %d;
  end store_%d;|}
      k k r k
  in
  let src =
    Printf.sprintf
      {|
program ground is
  type byte is mod 256;
  function square (x : in byte) return byte
  is
    acc : byte;
  begin
    acc := 0;
    for i in 1 .. x loop
      acc := acc + x;
    end loop;
    return acc;
  end square;%s
end ground;|}
      (String.concat ""
         (List.map (fun k -> store k (if k = 5 then 0 else k * k mod 256)) [ 2; 3; 5; 7; 11; 13 ]))
  in
  let env, prog = Typecheck.check (Parser.of_string src) in
  let statuses jobs =
    List.map (fun vr -> vr.IP.vr_status) (IP.run ~jobs env prog).IP.ip_results
  in
  let sequential = statuses 1 in
  Alcotest.(check int) "one false post" 1
    (List.length
       (List.filter (function IP.Residual _ -> true | _ -> false) sequential));
  Alcotest.(check bool) "ground evaluation proves the true posts" true
    (List.length (List.filter (( = ) IP.Auto) sequential) >= 5);
  Alcotest.(check bool) "same statuses at jobs=1 and jobs=2" true (statuses 2 = sequential)

let suites =
  [ ( "farm:pool",
      [ Alcotest.test_case "matches sequential map" `Quick test_pool_matches_sequential;
        Alcotest.test_case "inline path (jobs=1)" `Quick test_pool_inline_path;
        Alcotest.test_case "empty and single inputs" `Quick test_pool_empty_and_single;
        Alcotest.test_case "propagates worker exception" `Quick test_pool_propagates_exception;
        Alcotest.test_case "skewed workload balances" `Quick test_pool_heavy_jobs_balance;
        Alcotest.test_case "batches submitted while it runs" `Quick
          test_pool_streamed_batches ] );
    ( "farm:cache",
      [ Alcotest.test_case "roundtrip via disk" `Quick test_cache_roundtrip;
        Alcotest.test_case "tolerates garbage index" `Quick test_cache_tolerates_garbage;
        Alcotest.test_case "merges on save" `Quick test_cache_merges_on_save;
        Alcotest.test_case "refresh skips an unchanged index" `Quick
          test_refresh_skips_unchanged_index;
        Alcotest.test_case "refresh sees a sibling's save" `Quick
          test_refresh_sees_sibling_save ] );
    ( "farm:proof",
      [ Alcotest.test_case "parallel verdicts = sequential" `Quick
          test_farm_matches_sequential_proof;
        Alcotest.test_case "cold then warm cache" `Quick test_cold_then_warm_cache;
        Alcotest.test_case "index written only when an entry is added" `Quick
          test_index_written_only_on_add;
        Alcotest.test_case "cache keying isolates programs" `Quick
          test_cache_keying_isolates_programs;
        Alcotest.test_case "pf4 entries miss and re-prove" `Quick
          (test_old_scheme_entries_miss "pf4");
        Alcotest.test_case "pf5 entries miss and re-prove" `Quick
          (test_old_scheme_entries_miss "pf5");
        Alcotest.test_case "width-2 run reports worker memos" `Quick
          test_worker_memos_reported;
        Alcotest.test_case "ground evaluation agrees across jobs" `Quick
          test_ground_eval_jobs_agree ] ) ]
