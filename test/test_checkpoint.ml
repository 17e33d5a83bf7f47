(* Checkpoint format-versioning tests: a stage file from an older format
   (v1 header), a foreign case, or plain garbage must surface as
   [Some (Error _)] from [Checkpoint.load] — a clean rejection the
   orchestrator converts into a note and a recompute — never as an
   exception or a misread payload. *)

open Minispark
module CK = Echo.Checkpoint
module O = Echo.Orchestrator

let temp_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "echo-ckpt-fmt-%s-%d" tag (Unix.getpid ()))

let case = "tiny"

(* the refactor-stage checkpoint file for [case], as the orchestrator
   would name it *)
let stage_file dir =
  Filename.concat dir
    (Printf.sprintf "%d-%s.%s.ckpt" (CK.stage_index CK.S_refactor)
       (CK.stage_name CK.S_refactor) case)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let check_rejected what dir =
  match CK.load ~dir ~case CK.S_refactor with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.failf "%s was accepted" what
  | None -> Alcotest.failf "%s was not even seen" what
  | exception e ->
      Alcotest.failf "%s raised %s instead of returning Error" what
        (Printexc.to_string e)

let test_stale_versions_rejected () =
  let dir = temp_dir "stale" in
  mkdir_p dir;
  (* plausible older-format files: right shape, stale version — in
     particular a pre-certification v2 history must be discarded cleanly,
     not misread as one carrying certificates *)
  List.iter
    (fun version ->
      write_file (stage_file dir)
        (version ^ "\n" ^ case ^ "\n" ^ Marshal.to_string (42, "old payload") []);
      check_rejected (version ^ " checkpoint") dir)
    [ "ECHO-CKPT v1"; "ECHO-CKPT v2"; "ECHO-CKPT v3" ];
  CK.clear ~dir

(* a v4 file predates certificates that name their rule and stats that
   count decided and sampled targets, and a v5 file stats that count
   equivalence VCs and cache hits and certificates whose constructors
   include [M_vc]: their certify payloads must be refused with the format
   error, not unmarshalled into today's stats record *)
let test_v4_rejected () =
  let dir = temp_dir "v4" in
  mkdir_p dir;
  let file =
    Filename.concat dir
      (Printf.sprintf "%d-%s.%s.ckpt" (CK.stage_index CK.S_certify)
         (CK.stage_name CK.S_certify) case)
  in
  List.iter
    (fun version ->
      write_file file
        (version ^ "\n" ^ case ^ "\n"
        ^ Marshal.to_string ((59, 59, 0, 0), (59, 113, 5, 0, 0, 5, 2712, 0.1, 0.3)) []);
      match CK.load ~dir ~case CK.S_certify with
      | Some (Error why) ->
          Alcotest.(check bool) ("the format error: " ^ why) true
            (Astring.String.is_infix ~affix:(Printf.sprintf "format %S" version) why)
      | Some (Ok _) -> Alcotest.failf "a %s certify checkpoint was accepted" version
      | None -> Alcotest.failf "a %s certify checkpoint was not even seen" version)
    [ "ECHO-CKPT v4"; "ECHO-CKPT v5" ];
  CK.clear ~dir

let test_garbage_rejected () =
  let dir = temp_dir "junk" in
  mkdir_p dir;
  List.iteri
    (fun i contents ->
      write_file (stage_file dir) contents;
      check_rejected (Printf.sprintf "garbage checkpoint #%d" i) dir)
    [ "";                                    (* empty file *)
      "\x00\x01\x02binary junk";             (* no header line at all *)
      "ECHO-CKPT v6\n";                      (* header but no case/payload *)
      "ECHO-CKPT v6\nother-case\nx";         (* foreign case *)
      "ECHO-CKPT v6\n" ^ case ^ "\nnot-marshal-data" ];
  CK.clear ~dir

let test_missing_is_none () =
  let dir = temp_dir "none" in
  mkdir_p dir;
  (match CK.load ~dir ~case CK.S_refactor with
  | None -> ()
  | Some _ -> Alcotest.fail "phantom checkpoint");
  CK.clear ~dir

let test_good_roundtrip_still_works () =
  let dir = temp_dir "good" in
  let payload =
    CK.P_refactor
      { pr_final_src = "program p is end p;"; pr_steps = 3; pr_summary = "s";
        pr_certificates = [] }
  in
  (match CK.save ~dir ~case CK.S_refactor payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  Fun.protect ~finally:(fun () -> CK.clear ~dir)
    (fun () ->
      match CK.load ~dir ~case CK.S_refactor with
      | Some (Ok (CK.P_refactor r)) ->
          Alcotest.(check int) "steps survive" 3 r.pr_steps
      | _ -> Alcotest.fail "good checkpoint did not load")

let test_certificates_roundtrip () =
  (* certificates (including a counterexample) survive the refactor
     checkpoint, and the certify stage's audit its own *)
  let dir = temp_dir "certs" in
  let certs =
    [ (0, "reroll(f)",
       Refactor.Certify.Certified
         [ ("g", Refactor.Certify.M_oracle { trials = 24; exhaustive = false });
           ("h", Refactor.Certify.M_closure);
           ("i", Refactor.Certify.M_scheme "reverse_table");
           ("j", Refactor.Certify.M_reused { trials = 48; exhaustive = false }) ]);
      (1, "inline(t)",
       Refactor.Certify.Refuted
         { Refactor.Certify.cx_sub = "g"; cx_inputs = "3, 4";
           cx_before = "7"; cx_after = "8" });
      (2, "strength(h)", Refactor.Certify.Unknown "no valid inputs for h") ]
  in
  (match
     CK.save ~dir ~case CK.S_refactor
       (CK.P_refactor
          { pr_final_src = "program p is end p;"; pr_steps = 3;
            pr_summary = "s"; pr_certificates = certs })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save refactor: %s" e);
  let audit = Refactor.Certify.audit certs in
  (match
     CK.save ~dir ~case CK.S_certify
       (CK.P_certify { pc_audit = audit; pc_stats = Refactor.Certify.zero_stats })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save certify: %s" e);
  Fun.protect ~finally:(fun () -> CK.clear ~dir)
    (fun () ->
      (match CK.load ~dir ~case CK.S_refactor with
      | Some (Ok (CK.P_refactor r)) ->
          Alcotest.(check int) "certificate count" 3 (List.length r.pr_certificates);
          (match List.nth r.pr_certificates 1 with
          | _, name, Refactor.Certify.Refuted cx ->
              Alcotest.(check string) "step name survives" "inline(t)" name;
              Alcotest.(check string) "counterexample inputs survive" "3, 4"
                cx.Refactor.Certify.cx_inputs
          | _ -> Alcotest.fail "refuted certificate did not survive")
      | _ -> Alcotest.fail "refactor checkpoint did not load");
      match CK.load ~dir ~case CK.S_certify with
      | Some (Ok (CK.P_certify { pc_audit; _ })) ->
          Alcotest.(check int) "audit certified" 1 pc_audit.Refactor.Certify.au_certified;
          Alcotest.(check int) "audit refuted" 1 pc_audit.Refactor.Certify.au_refuted;
          Alcotest.(check int) "audit unknown" 1 pc_audit.Refactor.Certify.au_unknown
      | _ -> Alcotest.fail "certify checkpoint did not load")

(* ---------------- orchestrator-level recovery ---------------- *)

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
    Echo.Pipeline.cs_name = case;
    cs_refactor = (fun ?certify:_ () -> ([ (env, prog) ], Refactor.History.create env prog));
    cs_annotate = (fun p -> p);
    cs_original_spec = spec;
    cs_synonyms = [];
    cs_lemmas =
      (fun ~extracted:_ ->
        [ Echo.Implication.structural ~name:"tiny_struct" ~original:"tiny"
            ~extracted:"tiny" ~premises:[] ~check:(fun () -> true) () ]);
  }

let test_resume_over_corrupt_run_dir () =
  (* every stage file is garbage: resume must note each rejection,
     recompute everything, and still verify — no exception, no misread *)
  let dir = temp_dir "resume-corrupt" in
  mkdir_p dir;
  List.iter
    (fun stage ->
      write_file
        (Filename.concat dir
           (Printf.sprintf "%d-%s.%s.ckpt" (CK.stage_index stage)
              (CK.stage_name stage) case))
        "ECHO-CKPT v1\ncorrupt\n")
    CK.all_stages;
  let config = { O.default_config with O.oc_run_dir = Some dir } in
  let r = O.resume ~config (tiny_case ()) in
  Fun.protect ~finally:(fun () -> CK.clear ~dir)
    (fun () ->
      (match r.O.o_verdict with
      | O.Verified -> ()
      | v -> Alcotest.failf "expected Verified after recompute, got %a" O.pp_verdict v);
      List.iter
        (fun (s, status) ->
          match status with
          | O.St_ok { st_from_checkpoint = false; _ } -> ()
          | O.St_ok { st_from_checkpoint = true; _ } ->
              Alcotest.failf "stage %s resumed from a corrupt checkpoint"
                (CK.stage_name s)
          | _ -> Alcotest.failf "stage %s did not recover" (CK.stage_name s))
        r.O.o_stages;
      Alcotest.(check bool) "rejections were noted" true
        (List.exists
           (fun n ->
             Astring.String.is_infix ~affix:"unreadable checkpoint" n)
           r.O.o_notes))

let suites =
  [ ( "checkpoint:format",
      [ Alcotest.test_case "stale v1/v2 headers rejected" `Quick
          test_stale_versions_rejected;
        Alcotest.test_case "v4 certify checkpoint rejected" `Quick test_v4_rejected;
        Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
        Alcotest.test_case "missing is None" `Quick test_missing_is_none;
        Alcotest.test_case "good roundtrip still works" `Quick
          test_good_roundtrip_still_works;
        Alcotest.test_case "certificates round-trip" `Quick
          test_certificates_roundtrip;
        Alcotest.test_case "resume over corrupt run dir" `Quick
          test_resume_over_corrupt_run_dir ] ) ]
