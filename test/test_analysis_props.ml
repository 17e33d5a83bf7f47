(* Property tests for the static analyzer:

   - interval soundness: for random byte programs, every value the
     interpreter actually computes lies inside the interval the abstract
     interpretation reports at subprogram exit;
   - flow soundness: programs that initialise every local before use
     never draw an error-severity diagnostic;
   - Pretty/Parser round-trip: printing a random Builder program and
     re-parsing it is a fixpoint. *)

open Minispark
module A = Analysis

(* ------------------------------------------------------------------ *)
(* generator: byte programs over a fixed frame, with optional loop     *)
(* ------------------------------------------------------------------ *)

(* a body that definitely initialises x and y before the random tail and
   always sets the out parameter last; an optional bounded loop exercises
   the fixpoint/widening path of the analyzer *)
let gen_body =
  let open QCheck.Gen in
  let stmt =
    map2
      (fun t e -> Ast.Assign (Ast.Lvar t, e))
      (oneofl [ "x"; "y"; "r" ])
      (Randprog.gen_expr_over [ "a"; "b"; "x"; "y" ])
  in
  let tail = list_size (int_range 1 6) stmt in
  map2
    (fun looped tl ->
      let prefix =
        [ Ast.Assign (Ast.Lvar "x", Ast.Var "a"); Ast.Assign (Ast.Lvar "y", Ast.Var "b") ]
      in
      let mid =
        if looped then
          [ Ast.For
              {
                Ast.for_var = "k";
                for_reverse = false;
                for_lo = Ast.Int_lit 0;
                for_hi = Ast.Int_lit 3;
                for_invariants = [];
                for_body = tl;
              } ]
        else tl
      in
      prefix @ mid @ [ Ast.Assign (Ast.Lvar "r", Ast.Var "x") ])
    bool tail

let program_of_body body =
  let open Builder in
  program "randprog"
    [ typedef "byte" (t_mod 256);
      proc "f"
        ~params:
          [ param "a" (t_named "byte"); param "b" (t_named "byte");
            param_out "r" (t_named "byte") ]
        ~locals:[ local "x" (t_named "byte"); local "y" (t_named "byte") ]
        body ]

let arbitrary_program = Randprog.arbitrary ~program_of_body gen_body
let run_f = Randprog.run_f

(* ------------------------------------------------------------------ *)
(* property 1: exit intervals contain every interpreted result         *)
(* ------------------------------------------------------------------ *)

let prop_interval_sound =
  QCheck.Test.make ~name:"exit interval contains interpreted result" ~count:120
    arbitrary_program (fun body ->
      let env, prog = Typecheck.check (program_of_body body) in
      let sub = Option.get (Ast.find_sub prog "f") in
      let exits = A.Absint.exit_intervals env prog sub in
      let r_itv = List.assoc "r" exits in
      List.for_all
        (fun (a, b) -> A.Itv.contains r_itv (run_f env prog a b))
        [ (0, 0); (255, 255); (1, 2); (17, 203); (128, 64); (200, 100) ])

(* ------------------------------------------------------------------ *)
(* property 2: init-correct programs draw no flow errors               *)
(* ------------------------------------------------------------------ *)

let prop_flow_no_errors =
  QCheck.Test.make ~name:"no flow errors on init-correct programs" ~count:120
    arbitrary_program (fun body ->
      let _, prog = Typecheck.check (program_of_body body) in
      (* the program also runs cleanly, so any error would be spurious *)
      let env, _ = Typecheck.check (program_of_body body) in
      ignore (run_f env prog 3 7);
      List.for_all
        (fun d -> d.A.Diag.d_severity <> A.Diag.Error)
        (A.Flow.check prog))

(* ------------------------------------------------------------------ *)
(* property 3: Pretty -> Parser is a round-trip                        *)
(* ------------------------------------------------------------------ *)

let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"pretty/parse round-trip on random programs" ~count:120
    arbitrary_program (fun body ->
      let prog = program_of_body body in
      let s1 = Pretty.program_to_string prog in
      let reparsed = Parser.of_string s1 in
      let s2 = Pretty.program_to_string reparsed in
      (* fixpoint of printing, and semantics preserved *)
      String.equal s1 s2
      &&
      let env1, p1 = Typecheck.check prog in
      let env2, p2 = Typecheck.check reparsed in
      List.for_all
        (fun (a, b) -> run_f env1 p1 a b = run_f env2 p2 a b)
        [ (0, 0); (255, 1); (42, 99) ])

let suites =
  [
    ( "analysis-properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_interval_sound; prop_flow_no_errors; prop_pretty_parse_roundtrip ] );
  ]
