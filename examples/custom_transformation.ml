(* Extending the transformation library (§5.2): "the user can specify and
   prove a new semantics-preserving transformation using the proof template
   we provide and add it to the library."

   This example defines a strength-reduction transformation (x * 2 becomes
   x + x on modular operands), applies it through the framework — which
   re-type-checks the program and certifies the instance — and shows a bad
   transformation being refuted.

   Run with: dune exec examples/custom_transformation.exe *)

open Minispark

let source =
  {|
program doubling is

  type byte is mod 256;
  type vec is array (0 .. 7) of byte;

  procedure double_all (a : in out vec)
  is
  begin
    for i in 0 .. 7 loop
      a (i) := a (i) * 2;
    end loop;
  end double_all;

end doubling;
|}

(* the new transformation, built with the framework's combinators *)
let strength_reduce ~proc =
  Refactor.Transform.make
    ~name:(Printf.sprintf "strength_reduce(%s)" proc)
    ~category:Refactor.Transform.Modify_computation
    ~describe:"replace x * 2 by x + x"
    (fun _env program ->
      let changed = ref false in
      let rw =
        Ast.map_expr (function
          | Ast.Binop (Ast.Mul, e, Ast.Int_lit 2) ->
              changed := true;
              Ast.Binop (Ast.Add, e, e)
          | e -> e)
      in
      let program =
        Ast.update_sub program proc (fun sub ->
            { sub with
              Ast.sub_body =
                Ast.map_stmts (fun s -> [ Ast.map_own_exprs rw s ]) sub.Ast.sub_body })
      in
      if not !changed then Refactor.Transform.reject "no x * 2 sites in %s" proc;
      program)

(* a WRONG variant, to show the equivalence check rejecting it *)
let bogus_reduce ~proc =
  Refactor.Transform.make ~name:"bogus_reduce"
    ~category:Refactor.Transform.Modify_computation
    ~describe:"replace x * 2 by x + 1 (unsound!)"
    (fun _env program ->
      let rw =
        Ast.map_expr (function
          | Ast.Binop (Ast.Mul, e, Ast.Int_lit 2) -> Ast.Binop (Ast.Add, e, Ast.Int_lit 1)
          | e -> e)
      in
      Ast.update_sub program proc (fun sub ->
          { sub with
            Ast.sub_body =
              Ast.map_stmts (fun s -> [ Ast.map_own_exprs rw s ]) sub.Ast.sub_body }))

let () =
  let env, prog = Typecheck.check (Parser.of_string source) in
  let h = Refactor.History.create env prog in

  let certify = Refactor.Certify.default_config ~entries:[ "double_all" ] () in
  (* sound transformation: applies, and its certificate is recorded *)
  let step = Refactor.History.apply ~certify h (strength_reduce ~proc:"double_all") in
  Fmt.pr "applied %s: %s@." step.Refactor.History.st_name
    (Option.fold ~none:"uncertified" ~some:Refactor.Certify.describe
       step.Refactor.History.st_certificate);
  let _, prog' = Refactor.History.current h in
  let sub = Ast.find_sub_exn prog' "double_all" in
  Fmt.pr "transformed body:@.%a@." (fun ppf b -> Fmt.string ppf (Pretty.stmts_to_string b))
    sub.Ast.sub_body;

  (* unsound transformation on a fresh copy: refuted by the
     instance-equivalence check *)
  let h2 = Refactor.History.create env prog in
  (match Refactor.History.apply ~certify h2 (bogus_reduce ~proc:"double_all") with
  | _ -> Fmt.pr "BUG: unsound transformation was accepted!@."
  | exception Refactor.Certify.Refutation { rf_step; rf_cx } ->
      Fmt.pr "@.unsound transformation %s refuted:@.  %s@." rf_step
        (Refactor.Certify.counterexample_to_string rf_cx));
  Fmt.pr "@.history: %d step(s) recorded; undo restores the pre-image@."
    (Refactor.History.step_count h)
