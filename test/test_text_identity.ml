(* Program text at memory speed, with identical output.

   The lexer, the parser and the JSON codec are checked against the
   versions they replaced, kept verbatim as test-only references
   (lexer_ref.ml, parser_ref.ml, json_ref.ml): identical tokens with
   their positions, identical ASTs, identical errors (message, line,
   column, byte offset) and byte-identical encodings.  The protocol
   decoders are fed malformed lines, and two allocation budgets pin what
   the served path costs per job. *)

open Minispark
module J = Telemetry.Json
module P = Serve.Protocol

(* ------------------------------------------------------------------ *)
(* lexer and parser against the references                             *)
(* ------------------------------------------------------------------ *)

type 'a outcome = Done of 'a | Err of string * int * int | Raised of string

let lex_new src =
  match Lexer.tokenize src with
  | toks -> Done (Lexer.to_list toks)
  | exception Lexer.Error (m, l, c) -> Err (m, l, c)
  | exception e -> Raised (Printexc.to_string e)

let lex_ref src =
  match Lexer_ref.tokenize src with
  | toks -> Done toks
  | exception Lexer_ref.Error (m, l, c) -> Err (m, l, c)
  | exception e -> Raised (Printexc.to_string e)

let parse_new src =
  match Parser.of_string src with
  | p -> Done p
  | exception Parser.Error (m, l, c) -> Err (m, l, c)
  | exception e -> Raised (Printexc.to_string e)

let parse_ref src =
  match Parser_ref.of_string src with
  | p -> Done p
  | exception Parser_ref.Error (m, l, c) -> Err (m, l, c)
  | exception e -> Raised (Printexc.to_string e)

let describe = function
  | Done _ -> "ok"
  | Err (m, l, c) -> Printf.sprintf "error %S at %d:%d" m l c
  | Raised e -> "raised " ^ e

(* the first token where the two lexers part, for the failure message *)
let first_difference a b =
  let rec go i = function
    | (x : Lexer.positioned) :: xs, y :: ys ->
        if x = y then go (i + 1) (xs, ys)
        else
          Printf.sprintf "token %d: %s at %d:%d vs %s at %d:%d" i
            (Lexer.token_to_string x.tok) x.line x.col (Lexer.token_to_string y.tok) y.line
            y.col
    | [], [] -> "none"
    | _ -> Printf.sprintf "lengths differ after %d tokens" i
  in
  go 0 (a, b)

let check_same_text what src =
  (match (lex_new src, lex_ref src) with
  | Done a, Done b ->
      if a <> b then Alcotest.failf "%s: tokens differ (%s)" what (first_difference a b)
  | a, b ->
      if a <> b then
        Alcotest.failf "%s: lexer %s, reference %s" what (describe a) (describe b));
  let a = parse_new src and b = parse_ref src in
  if a <> b then
    Alcotest.failf "%s: parser %s, reference %s%s" what (describe a) (describe b)
      (match (a, b) with Done _, Done _ -> " (ASTs differ)" | _ -> "")

let fixture_dirs () =
  List.filter Sys.file_exists
    (match Sys.file_exists "../examples/programs" with
    | true -> [ "../examples/programs"; "." ]
    | false -> [ "examples/programs"; "test" ])

let fixtures () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".mspark")
      |> List.sort String.compare
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             (path, In_channel.with_open_bin path In_channel.input_all)))
    (fixture_dirs ())

let aes_source = lazy (Pretty.program_to_string (Lazy.force Test_vcgen.aes_annotated))

let test_fixtures () =
  let fs = fixtures () in
  Alcotest.(check bool) "found the example programs and test fixtures" true
    (List.length fs >= 4);
  List.iter (fun (path, src) -> check_same_text path src) fs

let test_aes_and_edits () =
  check_same_text "annotated AES" (Lazy.force aes_source);
  let prog = Lazy.force Test_vcgen.aes_annotated in
  List.iter
    (fun (sp : Ast.subprogram) ->
      let name = sp.Ast.sub_name in
      check_same_text ("AES, assert edit of " ^ name) (Test_vcgen.assert_edit prog name))
    (Ast.subprograms prog)

(* every third byte deleted, every fifth position given one inserted
   byte: the damaged programs must fail (or pass) exactly as before *)
let inserts = [| '?'; '"'; '#'; '-'; '\n'; 'A'; '9'; '('; ';'; '.'; '='; ' '; '\t'; '\xc3' |]

let damaged src =
  let n = String.length src in
  let deletions =
    List.init ((n + 2) / 3) (fun k ->
        let i = 3 * k in
        String.sub src 0 i ^ String.sub src (i + 1) (n - i - 1))
  in
  let insertions =
    List.init ((n + 5) / 5) (fun k ->
        let i = 5 * k in
        String.sub src 0 i
        ^ String.make 1 inserts.(k mod Array.length inserts)
        ^ String.sub src i (n - i))
  in
  deletions @ insertions

let test_damaged_fixtures () =
  List.iter
    (fun (path, src) ->
      List.iteri
        (fun k bad -> check_same_text (Printf.sprintf "%s, damaged copy %d" path k) bad)
        (damaged src))
    (fixtures ())

(* every reserved word, every annotation keyword and near misses *)
let every_word =
  "program is type constant range mod array of boolean integer procedure function \
   return in out begin end null if then elsif else for while loop reverse and or xor \
   not true false result all some programs i ends x_1 _y somE\n\
   --# pre --# post --# invariant --# assert --# pres --# Post\n"

let test_based_literals_and_case () =
  List.iter
    (check_same_text "literal")
    [ "16#ff# 16#C66363a5# 2#1010# 8#777#"; "17#1#"; "1#1#"; "16##"; "16#ff"; "16#fg#";
      "123456789012345678"; "1234567890123456789"; "4611686018427387903";
      "16#3fffffffffffffff# 2#" ^ String.make 62 '1' ^ "#";
      "Program P IS BEGIN End P;"; "--# PRE x > 0;\n--# Invariant\n--#\n--#   post";
      "x := a--comment\n+ b;"; "a .. b => c /= d <= e >= f := g"; "x : y"; "@"; "";
      "\xc3\xa9"; "--# 9pre"; every_word; String.uppercase_ascii every_word;
      String.capitalize_ascii every_word ]

(* The literals where the lexer deliberately parts from the reference:
   a decimal past [max_int] made the reference raise [Failure
   "int_of_string"], and a based literal that overflows or has a digit at
   or above its base was accepted (wrapped, or valued digit by digit).
   Each is now a lexical error at the literal.  These are the only inputs
   of this suite where lexer and reference differ. *)
let test_literals_out_of_range () =
  List.iter
    (fun (src, msg, line, col) ->
      (match (lex_new src, lex_ref src) with
      | Err (m, l, c), reference ->
          Alcotest.(check (triple string int int))
            ("lexer error for " ^ src) (msg, line, col) (m, l, c);
          Alcotest.(check bool) ("the reference lexes " ^ src ^ " otherwise") true
            (match reference with Err _ -> false | Done _ | Raised _ -> true)
      | other, _ -> Alcotest.failf "%s: lexer %s" src (describe other));
      match parse_new src with
      | Err (m, l, c) ->
          Alcotest.(check (triple string int int)) ("parser error for " ^ src)
            ("lexical error: " ^ msg, line, col) (m, l, c)
      | other -> Alcotest.failf "%s: parser %s" src (describe other))
    [ ("99999999999999999999", "integer literal out of range", 1, 1);
      ("4611686018427387904", "integer literal out of range", 1, 1);
      ("x := 1 +\n  123456789012345678901234567890;", "integer literal out of range", 2, 3);
      ("16#fffffffffffffffffff#", "based literal out of range", 1, 1);
      ("16#4000000000000000#", "based literal out of range", 1, 1);
      ("2#1" ^ String.make 62 '0' ^ "#", "based literal out of range", 1, 1);
      ("2#19#", "digit '9' out of range for base 2", 1, 1);
      ("k := 10#1a#;", "digit 'a' out of range for base 10", 1, 6);
      ("8#78#", "digit '8' out of range for base 8", 1, 1) ]

let prop_printed_bodies =
  QCheck.Test.make ~name:"printed random bodies lex and parse as the reference" ~count:200
    Test_properties.arbitrary_program (fun body ->
      check_same_text "random body"
        (Pretty.program_to_string (Test_properties.program_of_body body));
      true)

(* ------------------------------------------------------------------ *)
(* JSON codec against the reference                                    *)
(* ------------------------------------------------------------------ *)

(* strings the codec must escape, carry or reject: quotes, backslashes,
   every control byte, UTF-8 text and stray high bytes *)
let gen_text =
  let open QCheck.Gen in
  let piece =
    frequency
      [ (6, map (String.make 1) (char_range 'a' 'z'));
        (2, oneofl [ "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012"; "\x7f" ]);
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 31));
        (2, oneofl [ "\xc3\xa9"; "\xe2\x86\x92"; "\xf0\x9f\x98\x80"; "\xff"; "\x80" ]);
        (1, map (fun k -> String.make k ' ') (int_range 1 40)) ]
  in
  map (String.concat "") (list_size (int_range 0 24) piece)

let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (oneof [ small_signed_int; int; oneofl [ max_int; min_int; 0 ] ]);
        map (fun f -> J.Float f)
          (oneof [ float; oneofl [ 0.5; -1e-7; 1e300; Float.nan; Float.infinity ] ]);
        map (fun s -> J.String s) gen_text ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun xs -> J.List xs) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> J.Obj kvs)
                (list_size (int_range 0 4) (pair gen_text (self (depth - 1)))) ) ])
    3

let arbitrary_json = QCheck.make ~print:Json_ref.to_string gen_json

let prop_json_encode =
  QCheck.Test.make ~name:"to_string is byte-identical and decodes back identically"
    ~count:1000 arbitrary_json (fun v ->
      let s = J.to_string v in
      String.equal s (Json_ref.to_string v) && J.of_string s = Json_ref.of_string s)

(* the float encoder writes digits itself below 1e9 and defers to printf
   above: both sides of that line, exact ties, signed zeros, subnormals
   and non-finite values must print as the reference prints them *)
let float_edges =
  [ 0.0; -0.0; 1.0; -1.0; 0.1; 1e-6; 5e-7; -5e-7; 4.9999999e-7; 1e-7; -1e-9;
    0.0078125; 0.0234375; -0.0234375; 2.5; 0.5; 1.5; 1.0000005; 0.0000015;
    Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324; 2.2250738585072009e-308;
    999_999_999.999_999_5; 999_999_999.999_999; 1e9; -1e9; 1e9 +. 0.5; 123_456_789.123_456_5;
    1e15; 1e15 +. 1.0; -1e15; 1e16; 4.5e15; 9007199254740993.0; 1e300; Float.max_float;
    -.Float.max_float; Float.nan; Float.infinity; Float.neg_infinity; Float.epsilon;
    1.0 -. Float.epsilon; 0.999_999_5; 0.999_999_499_999_999_9 ]

let test_float_edges () =
  List.iter
    (fun v ->
      Alcotest.(check string) (Printf.sprintf "%h" v) (Json_ref.to_string (J.Float v))
        (J.to_string (J.Float v)))
    float_edges

(* scaled mantissas across every decimal magnitude the digit writer
   handles, plus exact multiples of 2^-7 (the ties of six decimals) *)
let prop_float_digits =
  QCheck.Test.make ~name:"floats print as the reference across magnitudes" ~count:5000
    QCheck.(
      make ~print:(Printf.sprintf "%h")
        Gen.(
          oneof
            [ map2 (fun m e -> m *. (10.0 ** float_of_int e)) (float_range (-1.0) 1.0)
                (int_range (-12) 10);
              map (fun k -> float_of_int k /. 128.0) (int_range (-1_000_000) 1_000_000);
              map (fun k -> (float_of_int k +. 0.5) /. 1e6) (int_range (-1_000_000) 1_000_000) ]))
    (fun v -> String.equal (J.to_string (J.Float v)) (Json_ref.to_string (J.Float v)))

(* raw lines: JSON-shaped fragments, escapes good and bad, truncated
   \u escapes, stray bytes *)
let gen_line =
  let open QCheck.Gen in
  let piece =
    oneofl
      [ "{"; "}"; "["; "]"; ","; ":"; "\""; "\\"; "\\n"; "\\\""; "\\\\"; "\\/"; "\\b"; "\\f";
        "\\t"; "\\r"; "\\q"; "\\u00e9"; "\\u2192"; "\\u0041"; "\\u12"; "\\uzzzz"; "\\u_1_2";
        "\\uFFFF"; "null"; "nul"; "true"; "fals"; "1"; "-0"; "2.5"; "1e3"; "-"; "+1"; "0x1";
        "."; " "; "\n"; "\t"; "abc"; "\xc3\xa9"; "\xff"; "\x01" ]
  in
  map (String.concat "") (list_size (int_range 0 16) piece)

let truncations s =
  let n = String.length s in
  List.sort_uniq compare [ 0; 1; n / 3; n / 2; n - 2; n - 1 ]
  |> List.filter (fun k -> k >= 0 && k < n)
  |> List.map (fun k -> String.sub s 0 k)

let prop_json_decode =
  QCheck.Test.make ~name:"of_string matches the reference on garbage and truncated lines"
    ~count:2000
    QCheck.(make ~print:(Printf.sprintf "%S") Gen.(oneof [ gen_line; map (fun l -> "\"" ^ l) gen_line ]))
    (fun line ->
      J.of_string line = Json_ref.of_string line
      && List.for_all (fun l -> J.of_string l = Json_ref.of_string l) (truncations line))

let prop_json_truncated_values =
  QCheck.Test.make ~name:"of_string matches the reference on truncated encodings"
    ~count:500 arbitrary_json (fun v ->
      List.for_all
        (fun l -> J.of_string l = Json_ref.of_string l)
        (truncations (J.to_string v)))

let test_json_errors () =
  List.iter
    (fun line ->
      match (J.of_string line, Json_ref.of_string line) with
      | Error a, Error b -> Alcotest.(check string) (Printf.sprintf "error for %S" line) b a
      | a, b ->
          Alcotest.(check bool) (Printf.sprintf "same result for %S" line) true (a = b);
          if Result.is_ok a then Alcotest.failf "expected an error for %S" line)
    [ ""; " "; "\"abc"; "\"a\\"; "\"\\u12"; "\"\\uzzzz\""; "\"\\q\""; "{\"a\" 1}"; "{1:2}";
      "[1,"; "[1 2]"; "{\"a\":1,}"; "nul"; "tru"; "1 2"; "--"; "1.2.3"; "{\"a\":\"b\"]" ]

(* ------------------------------------------------------------------ *)
(* malformed NDJSON against every protocol decoder                     *)
(* ------------------------------------------------------------------ *)

let summary i =
  {
    Echo.Verify.vs_name = Printf.sprintf "sub.%d" i;
    vs_sub = "sub";
    vs_digest = Printf.sprintf "%032x" i;
    vs_status = (if i mod 3 = 0 then "residual:goal is \"false\"\n" else "auto");
    vs_attempts = i;
    vs_time = 0.001 *. float_of_int i;
    vs_cached = i mod 2 = 0;
  }

let sample_source = "program p is\n  -- a \"quoted\" \\ comment\tand caf\xc3\xa9\nend p;\n"

let sample_outline =
  List.map
    (fun (ol_name, ol_kind, ol_iface) ->
      { Analysis.Semdiff.ol_name; ol_kind; ol_digest = Digest.to_hex (Digest.string ol_name);
        ol_iface })
    Analysis.Semdiff.
      [ ("byte", K_type, ""); ("caf\xc3\xa9", K_const, ""); ("g", K_var, "");
        ("p \"q\"", K_sub, "0123456789abcdef0123456789abcdef") ]

let sample_job =
  P.job ~id:"j1" ~analyze:true ~deadline_s:2.5
    ~baseline:
      { Echo.Verify.vb_outline = sample_outline; vb_results = List.init 4 summary }
    ~source:sample_source ()

let sample_outcome =
  {
    P.w_verdict = "degraded";
    w_fault = Some ("vc-infeasible", "path explosion in wide");
    w_total = 4; w_auto = 3; w_hinted = 0; w_residual = 1; w_timed_out = 0;
    w_discharged = 0; w_carried = 2; w_cache_hits = 1; w_cache_misses = 3;
    w_attempts = 7; w_impacted_subs = 1;
    w_results = List.init 4 summary;
    w_outline = Some sample_outline;
    w_notes = [ "note\twith tab" ];
    w_seconds = 0.25;
  }

let valid_lines =
  List.map J.to_string
    ([ P.request_to_json (P.Submit sample_job); P.request_to_json P.Stats;
       P.request_to_json P.Shutdown ]
    @ List.map P.event_to_json
        [ P.Accepted { ev_job = "j1"; ev_depth = 3 };
          P.Rejected { ev_job = "j1"; ev_reason = "queue full" };
          P.Stage { ev_job = "j1"; ev_stage = "parse"; ev_phase = P.P_start; ev_attempt = 1 };
          P.Stage { ev_job = "j1"; ev_stage = "prove"; ev_phase = P.P_ok 0.5; ev_attempt = 1 };
          P.Stage
            { ev_job = "j1"; ev_stage = "impact"; ev_phase = P.P_failed "boom"; ev_attempt = 2 };
          P.Verdict
            { ev_job = "j1"; ev_outcome = sample_outcome; ev_dedup = false; ev_attempts = 1 };
          P.Bye ])

let decoders : (string * (J.t -> (unit, string) result)) list =
  [ ("job_of_json", fun j -> Result.map ignore (P.job_of_json j));
    ("request_of_json", fun j -> Result.map ignore (P.request_of_json j));
    ("event_of_json", fun j -> Result.map ignore (P.event_of_json j)) ]

(* a line as the daemon, worker and client read it: decode the JSON, then
   the message; [Error] on either layer, never an exception *)
let decode_line f line = match J.of_string line with Error e -> Error e | Ok j -> f j

let total f line =
  match decode_line f line with
  | r -> Some r
  | exception _ -> None

let flip_bit line k =
  let b = Bytes.of_string line in
  let i = k / 8 mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (k mod 8))));
  Bytes.to_string b

let prop_protocol_malformed =
  let gen =
    QCheck.Gen.(
      pair (oneofl valid_lines) (pair (int_bound 1_000_000) (oneof [ gen_line; gen_text ])))
  in
  QCheck.Test.make ~name:"decoders return Error on malformed lines and never raise"
    ~count:1000
    (QCheck.make ~print:(fun (l, (k, g)) -> Printf.sprintf "%S / %d / %S" l k g) gen)
    (fun (line, (k, garbage)) ->
      let cut = String.sub line 0 (k mod String.length line) in
      List.for_all
        (fun (_, f) ->
          (* random and truncated lines are never a message *)
          (match total f garbage with Some (Error _) -> true | _ -> false)
          && (match total f cut with Some (Error _) -> true | _ -> false)
          (* a flipped bit may still spell a message; it must not raise *)
          && Option.is_some (total f (flip_bit line k))
          && Option.is_some (total f (flip_bit (flip_bit line k) (k / 3))))
        decoders)

let test_protocol_valid_lines () =
  (* the fuzzed lines start from real messages: each decodes under its own
     decoder, so the malformed cases above are near misses *)
  List.iter
    (fun line ->
      let ok =
        List.exists (fun (_, f) -> Result.is_ok (decode_line f line)) decoders
      in
      Alcotest.(check bool) ("decodes: " ^ String.sub line 0 (min 40 (String.length line)))
        true ok)
    valid_lines

(* ------------------------------------------------------------------ *)
(* allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. before)

(* one verdict per AES VC, as a served AES job reports them *)
let aes_results =
  lazy
    (let prog = Lazy.force Test_vcgen.aes_annotated in
     let gen = Vcgen.generate (fst (Typecheck.check prog)) prog in
     List.mapi
       (fun i (vc : Logic.Formula.vc) ->
         {
           Echo.Verify.vs_name = vc.Logic.Formula.vc_name;
           vs_sub = vc.Logic.Formula.vc_sub;
           vs_digest = Logic.Formula.vc_digest vc;
           vs_status = (if i mod 20 = 0 then "hinted:1" else "auto");
           vs_attempts = 1 + (i mod 3);
           vs_time = 0.000125 *. float_of_int (i mod 17);
           vs_cached = i mod 2 = 0;
         })
       (Vcgen.all_vcs gen))

(* an edit job's submission as a client sends it: the edited source,
   and the baseline's outline with one verdict per baseline VC *)
let aes_edit_submission =
  lazy
    (let prog = Lazy.force Test_vcgen.aes_annotated in
     let job =
       P.job ~id:"edit-1"
         ~baseline:
           { Echo.Verify.vb_outline = Analysis.Semdiff.outline prog;
             vb_results = Lazy.force aes_results }
         ~source:(Test_vcgen.assert_edit prog "shift_rows") ()
     in
     J.to_string (P.request_to_json (P.Submit job)))

(* the verdict event a worker sends for an AES job, as a JSON tree *)
let aes_verdict_event =
  lazy
    (let results = Lazy.force aes_results in
     let n = List.length results in
     P.event_to_json
       (P.Verdict
          { ev_job = "edit-1"; ev_dedup = false; ev_attempts = 1;
            ev_outcome =
              { P.w_verdict = "verified"; w_fault = None; w_total = n; w_auto = n - 20;
                w_hinted = 20; w_residual = 0; w_timed_out = 0; w_discharged = 0;
                w_carried = n - 42; w_cache_hits = 40; w_cache_misses = 2; w_attempts = 411;
                w_impacted_subs = 6; w_results = results;
                w_outline = Some (Analysis.Semdiff.outline (Lazy.force Test_vcgen.aes_annotated));
                w_notes = [ "impact: 6 subprogram(s) re-prove, 23 carried (341 VC verdict(s))" ];
                w_seconds = 0.017834 } }))

(* Budgets: the words measured on these inputs plus a 10% margin
   (parse 151,823 since the lexer keeps no per-token records, decode
   59,542).  The replaced parser allocates 280,955 words here and the
   replaced codec 201,494, so the old code fails both bounds; the
   references are measured below to keep that visible. *)
let parse_budget = 167_000
let decode_budget = 66_000

(* Encoding the AES verdict event (61,477 bytes, one float per VC)
   measured 3,631 words; the bound is that plus 10%.  Since the event
   codec drops the outline it is 58,069 bytes and 3,373 words.  The encoder it
   replaced, which printed every float through [Printf.sprintf "%.6f"]
   and copied the trimmed digits, took 27,620 words on a tree of the
   same shape and bytes, and the reference codec takes 45,196. *)
let encode_budget = 4_000

let test_alloc_parse () =
  let src = Lazy.force aes_source in
  ignore (Parser.of_string src);
  let words = minor_words (fun () -> Parser.of_string src) in
  let ref_words = minor_words (fun () -> Parser_ref.of_string src) in
  Printf.printf "Parser.of_string on %d bytes: %d minor words (reference %d)\n"
    (String.length src) words ref_words;
  Alcotest.(check bool)
    (Printf.sprintf "parse: %d words <= %d" words parse_budget)
    true (words <= parse_budget);
  Alcotest.(check bool) "the reference parser is over the budget" true (ref_words > parse_budget)

(* Words promoted out of the minor heap while lexing the AES print, with
   the domain's intern tables warm: the token array holds only shared
   tokens and positions are unboxed, so only the result record survives
   (measured 7 words).  The replaced lexer promoted 64,521 of its 64,571
   minor words here (a record, and often a block and a string, per token
   stored into a major-heap array); the reference promotes 99,233. *)
let promote_budget = 1_000

let promoted_words f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let r = Sys.opaque_identity (f ()) in
  Gc.minor ();
  ignore (Sys.opaque_identity r);
  int_of_float ((Gc.quick_stat ()).Gc.promoted_words -. before)

let test_alloc_lex () =
  let src = Lazy.force aes_source in
  ignore (Lexer.tokenize src);
  let words = promoted_words (fun () -> Lexer.tokenize src) in
  let ref_words = promoted_words (fun () -> Lexer_ref.tokenize src) in
  Printf.printf "Lexer.tokenize on %d bytes: %d promoted words (reference %d)\n"
    (String.length src) words ref_words;
  Alcotest.(check bool)
    (Printf.sprintf "lex: %d promoted words <= %d" words promote_budget)
    true (words <= promote_budget);
  Alcotest.(check bool) "the reference lexer is over the budget" true
    (ref_words > promote_budget)

let test_alloc_decode () =
  let line = Lazy.force aes_edit_submission in
  ignore (J.of_string line);
  let words = minor_words (fun () -> J.of_string line) in
  let ref_words = minor_words (fun () -> Json_ref.of_string line) in
  Printf.printf "Json.of_string on %d bytes: %d minor words (reference %d)\n"
    (String.length line) words ref_words;
  Alcotest.(check bool)
    (Printf.sprintf "decode: %d words <= %d" words decode_budget)
    true (words <= decode_budget);
  Alcotest.(check bool) "the reference codec is over the budget" true
    (ref_words > decode_budget)

let test_alloc_encode () =
  let json = Lazy.force aes_verdict_event in
  ignore (J.to_string json);
  let words = minor_words (fun () -> J.to_string json) in
  let ref_words = minor_words (fun () -> Json_ref.to_string json) in
  Printf.printf "Json.to_string of an AES verdict, %d bytes: %d minor words (reference %d)\n"
    (String.length (J.to_string json)) words ref_words;
  Alcotest.(check bool)
    (Printf.sprintf "encode: %d words <= %d" words encode_budget)
    true (words <= encode_budget);
  Alcotest.(check bool) "the reference codec is over the budget" true
    (ref_words > encode_budget)

let suites =
  [ ( "text:lexer-parser-identity",
      [ Alcotest.test_case "example programs and test fixtures" `Quick test_fixtures;
        Alcotest.test_case "annotated AES and its assert edits" `Quick test_aes_and_edits;
        Alcotest.test_case "one byte deleted or inserted" `Quick test_damaged_fixtures;
        Alcotest.test_case "literals, case and markers" `Quick test_based_literals_and_case;
        Alcotest.test_case "literals out of range are errors" `Quick test_literals_out_of_range;
        QCheck_alcotest.to_alcotest prop_printed_bodies ] );
    ( "text:json-identity",
      [ QCheck_alcotest.to_alcotest prop_json_encode;
        Alcotest.test_case "float edge cases" `Quick test_float_edges;
        QCheck_alcotest.to_alcotest prop_float_digits;
        QCheck_alcotest.to_alcotest prop_json_decode;
        QCheck_alcotest.to_alcotest prop_json_truncated_values;
        Alcotest.test_case "error strings and offsets" `Quick test_json_errors ] );
    ( "serve:protocol-malformed",
      [ Alcotest.test_case "sample messages decode" `Quick test_protocol_valid_lines;
        QCheck_alcotest.to_alcotest prop_protocol_malformed ] );
    ( "text:alloc-budget",
      [ Alcotest.test_case "parse the annotated AES source" `Quick test_alloc_parse;
        Alcotest.test_case "lex the annotated AES source" `Quick test_alloc_lex;
        Alcotest.test_case "decode an AES edit submission" `Quick test_alloc_decode;
        Alcotest.test_case "encode an AES wire outcome" `Quick test_alloc_encode ] ) ]
