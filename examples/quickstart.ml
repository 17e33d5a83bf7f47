(* Quickstart: verify a small annotated MiniSpark program end to end.

   The program computes a saturating 8-bit histogram update; we parse it,
   look at the §5.2 metrics, apply one refactoring, generate verification
   conditions, and discharge them with the automatic prover.

   Run with: dune exec examples/quickstart.exe *)

open Minispark

let source =
  {|
program histogram is

  type byte is mod 256;
  type counts_t is array (0 .. 15) of byte;

  procedure bump (counts : in out counts_t; bucket : in integer)
  --# pre bucket >= 0 and bucket <= 15;
  --# post counts (bucket) >= 0;
  is
  begin
    if counts (bucket) < 255 then
      counts (bucket) := counts (bucket) + 1;
    end if;
  end bump;

  procedure clear (counts : out counts_t)
  --# post (for all k in 0 .. 15 => counts (k) = 0);
  is
  begin
    counts (0) := 0;
    counts (1) := 0;
    counts (2) := 0;
    counts (3) := 0;
    counts (4) := 0;
    counts (5) := 0;
    counts (6) := 0;
    counts (7) := 0;
    counts (8) := 0;
    counts (9) := 0;
    counts (10) := 0;
    counts (11) := 0;
    counts (12) := 0;
    counts (13) := 0;
    counts (14) := 0;
    counts (15) := 0;
  end clear;

end histogram;
|}

let () =
  (* 1. parse and type-check *)
  let env, prog = Typecheck.check (Parser.of_string source) in
  Fmt.pr "parsed %s: %d subprograms@." prog.Ast.prog_name
    (List.length (Ast.subprograms prog));

  (* 2. metrics guide the refactoring (§5.2) *)
  Fmt.pr "@.metrics before refactoring:@.%a@." Metrics.pp (Metrics.analyze prog);

  (* 3. the suggester finds the unrolled loop in [clear] *)
  (match Refactor.Reroll.suggest prog with
  | (sub, from, len, count) :: _ ->
      Fmt.pr "@.suggested: reroll %d groups of %d statements at %s:%d@." count len sub from
  | [] -> Fmt.pr "@.no suggestions@.");

  (* 4. apply the rerolling and certify that it preserved semantics *)
  let h = Refactor.History.create env prog in
  let step =
    Refactor.History.apply
      ~certify:(Refactor.Certify.default_config ~entries:[ "bump"; "clear" ] ())
      h
      (Refactor.Reroll.reroll ~proc:"clear" ~from:0 ~group_len:1 ~count:16 ~var:"i")
  in
  Fmt.pr "applied %s (%s)@." step.Refactor.History.st_name
    (Option.fold ~none:"uncertified" ~some:Refactor.Certify.describe
       step.Refactor.History.st_certificate);

  (* the rerolled loop needs its invariant back *)
  let _env, prog = Refactor.History.current h in
  let prog =
    Ast.update_sub prog "clear" (fun sub ->
        match sub.Ast.sub_body with
        | [ Ast.For fl ] ->
            { sub with
              Ast.sub_body =
                [ Ast.For
                    { fl with
                      Ast.for_invariants =
                        [ Parser.expr_of_string
                            "(for all k in 0 .. i - 1 => counts (k) = 0)" ] } ] }
        | _ -> sub)
  in
  let env, prog = Typecheck.check prog in
  ignore env;

  (* 5. implementation proof: VCs + automatic prover *)
  let env, prog = Typecheck.check prog in
  let report = Echo.Implementation_proof.run env prog in
  Fmt.pr "@.%a@." Echo.Implementation_proof.pp_details report
