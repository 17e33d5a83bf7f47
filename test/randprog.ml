(* Random byte programs for the property suites: an expression generator,
   a printer and a runner shared by every suite whose programs are
   [procedure f (a : in byte; b : in byte; r : out byte)] with byte
   locals.  Each suite keeps its own body generator and frame. *)

open Minispark

(* a byte expression of depth at most 3 over [vars] *)
let gen_expr_over vars =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> Ast.Int_lit (n land 0xff)) (int_range 0 255);
        map (fun k -> Ast.Var (List.nth vars (k mod List.length vars)))
          (int_range 0 (List.length vars - 1)) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (3,
             map2
               (fun op (a, b) -> Ast.Binop (op, a, b))
               (oneofl Ast.[ Add; Sub; Mul; Bxor; Band; Bor ])
               (pair (self (depth - 1)) (self (depth - 1)))) ])
    3

(* bodies from [gen], printed as the whole program [program_of_body]
   builds around them *)
let arbitrary ~program_of_body gen =
  QCheck.make ~print:(fun body -> Pretty.program_to_string (program_of_body body)) gen

(* [f]'s out value on inputs [a] and [b] *)
let run_f env prog a b =
  let rt = Interp.make env prog in
  match Interp.run_procedure rt "f" [ Value.Vint a; Value.Vint b ] with
  | [ r ] -> Value.as_int r
  | _ -> Alcotest.fail "expected one out value"
