(* Defect seeding (§7.1): deterministic mutation of the optimized AES
   implementation.

   Each defect is a single change of one of the paper's five basic types:
   (a) a numeric value, (b) an array index, (c) an operator, (d) a variable
   or table reference, (e) a statement or function call.  Mutation sites
   are enumerated from the AST and chosen with a seeded PRNG, so the
   experiment is reproducible. *)

open Minispark

type defect_type =
  | Numeric_value
  | Array_index
  | Operator
  | Reference
  | Statement

let defect_type_name = function
  | Numeric_value -> "numeric value"
  | Array_index -> "array index"
  | Operator -> "operator"
  | Reference -> "variable or table reference"
  | Statement -> "statement or function call"

type defect = {
  d_id : int;
  d_type : defect_type;
  d_sub : string;          (** subprogram mutated *)
  d_describe : string;
  d_benign : bool;
  d_apply : Ast.program -> Ast.program;
}

(* deterministic xorshift *)
let xorshift seed =
  let state = ref (if seed = 0 then 2463534242 else seed) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) in
    state := x;
    x land max_int

(* ------------------------------------------------------------------ *)
(* mutation sites                                                      *)
(* ------------------------------------------------------------------ *)

(* Mutations address expression occurrences by a global counter over a
   deterministic traversal of one subprogram's body.  [mutate_nth] applies
   [f] to the n-th node satisfying the site predicate. *)

let mutate_expr_sites ~sub_name ~site ~rewrite ~nth program =
  let count = ref (-1) in
  let changed = ref false in
  let rw =
    Ast.map_expr (fun e ->
        if site e then begin
          incr count;
          if !count = nth then begin
            changed := true;
            rewrite e
          end
          else e
        end
        else e)
  in
  let program =
    Ast.update_sub program sub_name (fun sub ->
        { sub with Ast.sub_body = Ast.map_stmts (fun s -> [ Ast.map_own_exprs rw s ]) sub.Ast.sub_body })
  in
  if not !changed then invalid_arg "mutate_expr_sites: site index out of range";
  program

let count_expr_sites ~site (sub : Ast.subprogram) =
  let n = ref 0 in
  Ast.iter_stmts
    (fun s -> Ast.iter_own_exprs (fun e -> Ast.iter_expr (fun e -> if site e then incr n) e) s)
    sub.Ast.sub_body;
  !n

(* site predicates *)
let is_interesting_literal = function
  (* mask/shift literals and table entries; skip 0/1 which often change
     types of constructs rather than values *)
  | Ast.Int_lit n -> n > 1
  | _ -> false

let is_index = function Ast.Index (_, _) -> true | _ -> false

let is_binop = function
  | Ast.Binop ((Ast.Bxor | Ast.Bor | Ast.Band | Ast.Add | Ast.Sub | Ast.Gt | Ast.Lt), _, _) ->
      true
  | _ -> false

let is_var_ref vars = function Ast.Var x -> List.mem x vars | _ -> false

(* rewrites *)
let flip_literal rng = function
  | Ast.Int_lit n ->
      let delta = 1 + (rng () mod 7) in
      Ast.Int_lit (abs (n - delta))
  | e -> e

let shift_index = function
  | Ast.Index (a, Ast.Int_lit n) -> Ast.Index (a, Ast.Int_lit (n + 1))
  | Ast.Index (a, i) -> Ast.Index (a, Ast.Binop (Ast.Add, i, Ast.Int_lit 1))
  | e -> e

let swap_operator = function
  | Ast.Binop (Ast.Bxor, a, b) -> Ast.Binop (Ast.Bor, a, b)
  | Ast.Binop (Ast.Bor, a, b) -> Ast.Binop (Ast.Bxor, a, b)
  | Ast.Binop (Ast.Band, a, b) -> Ast.Binop (Ast.Bor, a, b)
  | Ast.Binop (Ast.Add, a, b) -> Ast.Binop (Ast.Sub, a, b)
  | Ast.Binop (Ast.Sub, a, b) -> Ast.Binop (Ast.Add, a, b)
  | Ast.Binop (Ast.Gt, a, b) -> Ast.Binop (Ast.Ge, a, b)
  | Ast.Binop (Ast.Lt, a, b) -> Ast.Binop (Ast.Le, a, b)
  | e -> e

let swap_reference pairs = function
  | Ast.Var x as e -> (
      match List.assoc_opt x pairs with Some y -> Ast.Var y | None -> e)
  | e -> e

(* statement-level mutation: delete the nth assignment (anywhere, including
   loop and conditional bodies) *)
let delete_statement ~sub_name ~nth program =
  Ast.update_sub program sub_name (fun sub ->
      let count = ref (-1) in
      let deleted = ref false in
      let body =
        Ast.map_stmts
          (fun s ->
            match s with
            | Ast.Assign _ ->
                incr count;
                if !count = nth then begin
                  deleted := true;
                  []
                end
                else [ s ]
            | s -> [ s ])
          sub.Ast.sub_body
      in
      if not !deleted then invalid_arg "delete_statement: no such assignment";
      { sub with Ast.sub_body = body })

let count_assignments (sub : Ast.subprogram) =
  let n = ref 0 in
  Ast.iter_stmts (function Ast.Assign _ -> incr n | _ -> ()) sub.Ast.sub_body;
  !n

(* benign mutation: a dead store to the local [temp] of key_setup_dec,
   inserted after its last use — the analogue of the paper's unused
   round-key entries: an implementation artefact the specification says
   nothing about *)
let benign_dead_store program =
  Ast.update_sub program "key_setup_dec" (fun sub ->
      { sub with
        Ast.sub_body =
          sub.Ast.sub_body
          @ [ Ast.Assign (Ast.Lvar "temp", Ast.Index (Ast.Var "rk", Ast.Int_lit 0)) ] })

(* ------------------------------------------------------------------ *)
(* the seeded set                                                      *)
(* ------------------------------------------------------------------ *)

(* A mutation can accidentally be semantics-neutral (e.g. turning [xor]
   into [or] over operands with disjoint set bits).  The paper's 14
   non-benign defects are real faults, so seeding validates each candidate
   against the FIPS-197 vectors and slides to the next site until the
   behaviour actually changes. *)
let breaks_behaviour (program : Ast.program) (apply : Ast.program -> Ast.program) =
  match apply program with
  | exception Invalid_argument _ -> false
  | defective -> (
      match Minispark.Typecheck.check defective with
      | exception Minispark.Typecheck.Type_error _ -> true (* still a caught fault *)
      | env, defective -> (
          match Aes.Aes_kat.run_vectors env defective with
          | outcomes -> not (Aes.Aes_kat.all_pass outcomes)
          | exception _ -> true))

(** Seed the paper's 15 defects (three of each type), deterministically.
    One of the statement defects is crafted to be benign (§7.3); the other
    fourteen are validated to actually change cipher behaviour.  [subs] and
    [ref_pairs] adapt the mutation surface to the program being seeded (the
    optimized original by default; pass the refactored names to seed the
    final program). *)
let seed_all ?(seed = 20090629)
    ?(subs = [ "encrypt"; "decrypt"; "key_setup_enc"; "key_setup_dec" ])
    ?(ref_pairs =
      [ ("s0", "s1"); ("t1", "t2"); ("te1", "te2"); ("td1", "td2"); ("s3", "s2");
        ("te4", "te0"); ("td4", "td0") ])
    (program : Ast.program) : defect list =
  let rng = xorshift seed in
  let pick_sub k = List.nth subs (k mod List.length subs) in
  let expr_defect dtype ~site ~rewrite ~describe k =
    (* slide to a subprogram that has sites of this kind at all *)
    let rec pick_with_sites tried =
      if tried >= List.length subs then invalid_arg "no mutation sites anywhere"
      else
        let name = pick_sub (k + tried) in
        if count_expr_sites ~site (Ast.find_sub_exn program name) > 0 then name
        else pick_with_sites (tried + 1)
    in
    let sub_name = pick_with_sites 0 in
    let sub = Ast.find_sub_exn program sub_name in
    let sites = count_expr_sites ~site sub in
    let first = rng () mod sites in
    (* slide to the first site from [first] whose mutation breaks a KAT *)
    let rec find tried =
      if tried >= sites then first (* give up: keep the original site *)
      else
        let nth = (first + tried) mod sites in
        if breaks_behaviour program (mutate_expr_sites ~sub_name ~site ~rewrite ~nth)
        then nth
        else find (tried + 1)
    in
    let nth = find 0 in
    {
      d_id = 0;
      d_type = dtype;
      d_sub = sub_name;
      d_describe = Printf.sprintf "%s in %s (site %d)" describe sub_name nth;
      d_benign = false;
      d_apply = (fun p -> mutate_expr_sites ~sub_name ~site ~rewrite ~nth p);
    }
  in
  let numeric k =
    let r = rng () in
    expr_defect Numeric_value ~site:is_interesting_literal
      ~rewrite:(fun e -> flip_literal (xorshift r) e)
      ~describe:"changed numeric value" k
  in
  let index k =
    expr_defect Array_index ~site:is_index ~rewrite:shift_index
      ~describe:"shifted array index" k
  in
  let operator k =
    expr_defect Operator ~site:is_binop ~rewrite:swap_operator
      ~describe:"swapped operator" k
  in
  let reference k =
    let vars = List.map fst ref_pairs in
    expr_defect Reference ~site:(is_var_ref vars)
      ~rewrite:(swap_reference ref_pairs)
      ~describe:"swapped variable/table reference" k
  in
  let statement k =
    (* slide to a subprogram that actually contains assignments (after
       refactoring some bodies are pure call sequences) *)
    let rec pick_with_assignments tried =
      if tried >= List.length subs then invalid_arg "no assignments anywhere"
      else
        let name = pick_sub (k + tried) in
        if count_assignments (Ast.find_sub_exn program name) > 0 then name
        else pick_with_assignments (tried + 1)
    in
    let sub_name = pick_with_assignments 0 in
    let sub = Ast.find_sub_exn program sub_name in
    let assignments = count_assignments sub in
    let first = rng () mod max 1 assignments in
    let rec find tried =
      if tried >= assignments then first
      else
        let nth = (first + tried) mod assignments in
        if breaks_behaviour program (delete_statement ~sub_name ~nth) then nth
        else find (tried + 1)
    in
    let nth = find 0 in
    {
      d_id = 0;
      d_type = Statement;
      d_sub = sub_name;
      d_describe = Printf.sprintf "deleted assignment %d of %s" nth sub_name;
      d_benign = false;
      d_apply = delete_statement ~sub_name ~nth;
    }
  in
  let benign =
    {
      d_id = 0;
      d_type = Statement;
      d_sub = "key_setup_dec";
      d_describe = "dead store to an intermediate variable";
      d_benign = true;
      d_apply = benign_dead_store;
    }
  in
  let defects =
    (* offset each type so the fifteen sites spread across the whole
       subprogram list rather than piling on the first three *)
    List.init 3 numeric
    @ List.init 3 (fun k -> index (k + 1))
    @ List.init 3 (fun k -> operator (k + 2))
    @ List.init 3 (fun k -> reference (k + 3))
    @ [ statement 4; statement 5; benign ]
  in
  List.mapi (fun i d -> { d with d_id = i + 1 }) defects

let pp_defect ppf d =
  Fmt.pf ppf "#%02d [%s] %s%s" d.d_id (defect_type_name d.d_type) d.d_describe
    (if d.d_benign then " (benign)" else "")
