(* Semantics-preservation checking (§5.1): the one differential oracle.

   The paper proves, in PVS, the theorem
       init_state(P) = init_state(P') => final_state(P) = final_state(P')
   once per generalised transformation.  This module is the mechanical
   substitute: for the *instance* actually applied, it decides or tests the
   theorem directly, and every dynamic check in the refactoring library
   goes through it —

   - [oracle]: differential execution of one subprogram in two program
     versions, over every valid input when the input domain is small (a
     decision) and over QCheck-generated inputs from the precondition's
     sampling domains otherwise.  A transformation's own semantic check
     ([Rewrite_body.replace_body]) and {!Certify}'s per-target evidence
     both call it;
   - [check_expr_table]: exhaustive equality of a table and a replacement
     expression over the table's index range (used by table reversal — for
     finite domains this *is* a proof, not a test).

   Both return one verdict type.  Every random draw is seeded, so every
   verdict is reproducible. *)

open Minispark

type counterexample = {
  cx_sub : string;
  cx_inputs : string;
  cx_before : string;
  cx_after : string;
}

let counterexample_to_string cx =
  Printf.sprintf "%s(%s): %s vs %s" cx.cx_sub cx.cx_inputs cx.cx_before
    cx.cx_after

type verdict =
  | Agree of { trials : int; exhaustive : bool }
  | Refuted of counterexample
  | Undecided of string

(* ------------------------------------------------------------------ *)
(* Precondition-directed input domains                                 *)
(*                                                                     *)
(* Semantics preservation is equality of final states from the same    *)
(* *valid* initial state (section 5.1), so inputs must satisfy the     *)
(* entry's precondition.  Common precondition shapes are turned into   *)
(* sampling domains; anything else is a rejection filter.              *)
(* ------------------------------------------------------------------ *)

type domain =
  | Dmember of int list        (** x = a or x = b or ... *)
  | Delems_below of int        (** for all k => x (k) < n *)
  | Dbelow of int              (** x < n *)

let conjuncts (e : Ast.expr) =
  let rec go e =
    match e with
    | Ast.Binop ((Ast.And | Ast.And_then), a, b) -> go a @ go b
    | e -> [ e ]
  in
  go e

let membership (e : Ast.expr) =
  (* [x = a or x = b or ...] for one variable x *)
  let rec go e =
    match e with
    | Ast.Binop (Ast.Eq, Ast.Var x, Ast.Int_lit v) -> Some (x, [ v ])
    | Ast.Binop ((Ast.Or | Ast.Or_else), a, b) -> (
        match (go a, go b) with
        | Some (x, vs), Some (y, ws) when String.equal x y -> Some (x, vs @ ws)
        | _ -> None)
    | _ -> None
  in
  go e

let domains_of_pre (pre : Ast.expr option) : (string * domain) list =
  match pre with
  | None -> []
  | Some pre ->
      List.filter_map
        (fun c ->
          match membership c with
          | Some (x, vs) -> Some (x, Dmember vs)
          | None -> (
              match c with
              | Ast.Quantified
                  (Ast.Forall, k, _, _,
                   Ast.Binop (Ast.Lt, Ast.Index (Ast.Var p, Ast.Var k'), Ast.Int_lit n))
                when String.equal k k' ->
                  Some (p, Delems_below n)
              | Ast.Quantified
                  (Ast.Forall, k, _, _,
                   Ast.Binop (Ast.Le, Ast.Index (Ast.Var p, Ast.Var k'), Ast.Int_lit n))
                when String.equal k k' ->
                  Some (p, Delems_below (n + 1))
              | Ast.Binop (Ast.Lt, Ast.Var x, Ast.Int_lit n) -> Some (x, Dbelow n)
              | Ast.Binop (Ast.Le, Ast.Var x, Ast.Int_lit n) -> Some (x, Dbelow (n + 1))
              | _ -> None))
        (conjuncts pre)

(* evaluate the precondition on candidate inputs (rejection filter for
   conjuncts the domain extraction did not understand) *)
let satisfies_pre env program (sub : Ast.subprogram) inputs =
  match sub.Ast.sub_pre with
  | None -> true
  | Some pre -> (
      let rt = Interp.make env program in
      let bindings =
        let remaining = ref inputs in
        List.filter_map
          (fun (p : Ast.param) ->
            match p.Ast.par_mode with
            | Ast.Mode_in | Ast.Mode_in_out -> (
                match !remaining with
                | v :: rest ->
                    remaining := rest;
                    Some (p.Ast.par_name, v)
                | [] -> None)
            | Ast.Mode_out -> None)
          sub.Ast.sub_params
      in
      match Interp.eval_expr rt bindings pre with
      | Value.Vbool b -> b
      | _ -> false
      | exception (Interp.Stuck _ | Interp.Out_of_fuel | Value.Runtime_error _) ->
          false)

(* enumerate all inputs when the domain is small; [None] otherwise *)
let enumerate_inputs env ?(limit = 4096) (sub : Ast.subprogram) =
  let values_of (t : Ast.typ) =
    match Typecheck.resolve env t with
    | Ast.Tbool -> Some [ Value.Vbool false; Value.Vbool true ]
    | Ast.Tint (Some (lo, hi)) when hi - lo < limit ->
        Some (List.init (hi - lo + 1) (fun k -> Value.Vint (lo + k)))
    | Ast.Tmod m when m <= limit -> Some (List.init m (fun k -> Value.Vmod (k, m)))
    | Ast.Tarray _ | Ast.Tint _ | Ast.Tmod _ -> None
    | Ast.Tnamed _ -> assert false
  in
  let ins =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.Ast.par_mode with
        | Ast.Mode_in | Ast.Mode_in_out -> Some p.Ast.par_typ
        | Ast.Mode_out -> None)
      sub.Ast.sub_params
  in
  let rec product = function
    | [] -> Some [ [] ]
    | t :: rest ->
        Option.bind (values_of t) (fun vs ->
            Option.bind (product rest) (fun rows ->
                let combined =
                  List.concat_map (fun v -> List.map (fun row -> v :: row) rows) vs
                in
                if List.length combined > limit then None else Some combined))
  in
  product ins

type outcome =
  | R_vals of Value.t list
  | R_raised of string
  | R_fuel

(* one run of [sub] under [fuel]; [env] must be [program]'s own type
   environment *)
let run ~fuel env program (sub : Ast.subprogram) inputs =
  match
    let rt = Interp.make ~fuel env program in
    if sub.Ast.sub_return <> None then [ Interp.run_function rt sub.Ast.sub_name inputs ]
    else Interp.run_procedure rt sub.Ast.sub_name inputs
  with
  | vs -> R_vals vs
  | exception (Interp.Stuck msg | Value.Runtime_error msg) -> R_raised msg
  | exception Interp.Out_of_fuel -> R_fuel

let values_equal a b =
  List.length a = List.length b && List.for_all2 Value.equal a b

let memo_readings () =
  ("interp_memo", Interp.memo_stats ())
  :: ("interp_fn_memo", Interp.fn_memo_stats ())
  :: Share.memo_stats ()

(* ------------------------------------------------------------------ *)
(* Closure identity                                                    *)
(* ------------------------------------------------------------------ *)

(* Digest of every declaration a run of [name] can observe
   ([Share.closure_digest]), rooted at [name] and every type declaration
   (resolution and coercion read them).  No other declaration can change
   what a run of [name] computes once global initialisation succeeds: the
   type checker keeps functions from writing globals or calling
   procedures and rejects forward references, so an initialiser that
   calls a subprogram sets only its own object.  Whether initialisation
   succeeds is [same_closure]'s separate check. *)
let closure_digest (prog : Ast.program) name =
  Share.closure_digest prog
    (name
    :: List.filter_map
         (function Ast.Dtype (n, _) -> Some n | _ -> None)
         prog.Ast.prog_decls)

(* A target whose closure is the same in both versions, in two programs
   that both initialise, runs the same declarations from the same global
   state: whatever it computes, it computes in both. *)
let same_closure ~fuel (env_a, prog_a) (env_b, prog_b) name =
  let initialises env prog =
    match Interp.make ~fuel env prog with
    | _ -> true
    | exception (Interp.Stuck _ | Value.Runtime_error _ | Interp.Out_of_fuel) -> false
  in
  Ast.find_sub prog_a name <> None
  && Ast.find_sub prog_b name <> None
  && String.equal (closure_digest prog_a name) (closure_digest prog_b name)
  && initialises env_a prog_a && initialises env_b prog_b

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let rec gen_value env (d : domain option) (t : Ast.typ) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  match d with
  | Some (Dmember vs) ->
      let vs = Array.of_list vs in
      map
        (fun i ->
          let v = vs.(i) in
          match Typecheck.resolve env t with
          | Ast.Tmod m -> Value.Vmod (((v mod m) + m) mod m, m)
          | _ -> Value.Vint v)
        (int_bound (Array.length vs - 1))
  | Some (Dbelow n) -> (
      match Typecheck.resolve env t with
      | Ast.Tmod m -> map (fun v -> Value.Vmod (v, m)) (int_bound (max 0 (min n m - 1)))
      | Ast.Tint (Some (lo, _)) ->
          map (fun v -> Value.Vint v) (int_range lo (max lo (n - 1)))
      | _ -> map (fun v -> Value.Vint v) (int_bound (max 0 (n - 1))))
  | Some (Delems_below n) -> (
      match Typecheck.resolve env t with
      | Ast.Tarray (lo, hi, elt) ->
          map
            (fun arr -> Value.Varray (lo, arr))
            (array_size (return (hi - lo + 1)) (gen_value env (Some (Dbelow n)) elt))
      | t -> gen_value env None t)
  | None -> (
      match Typecheck.resolve env t with
      | Ast.Tbool -> map (fun b -> Value.Vbool b) bool
      | Ast.Tint (Some (lo, hi)) -> map (fun v -> Value.Vint v) (int_range lo hi)
      | Ast.Tint None -> map (fun v -> Value.Vint v) (int_range (-1000) 1000)
      | Ast.Tmod m -> map (fun v -> Value.Vmod (v, m)) (int_bound (m - 1))
      | Ast.Tarray (lo, hi, elt) ->
          map
            (fun arr -> Value.Varray (lo, arr))
            (array_size (return (hi - lo + 1)) (gen_value env None elt))
      | Ast.Tnamed _ -> assert false)

(* typed input generator for a subprogram, honouring the precondition's
   sampling domains *)
let gen_inputs env (sub : Ast.subprogram) : Value.t list QCheck.Gen.t =
  let domains = domains_of_pre sub.Ast.sub_pre in
  QCheck.Gen.flatten_l
    (List.filter_map
       (fun (p : Ast.param) ->
         match p.Ast.par_mode with
         | Ast.Mode_in | Ast.Mode_in_out ->
             Some (gen_value env (List.assoc_opt p.Ast.par_name domains) p.Ast.par_typ)
         | Ast.Mode_out -> None)
       sub.Ast.sub_params)

let show_values vs = String.concat ", " (List.map Value.to_string vs)

(* one differential trial over runs of the two versions;
   [None] = agreement *)
let run_case ~run_a ~run_b name inputs =
  let cx before after =
    Some
      (Refuted
         { cx_sub = name; cx_inputs = show_values inputs; cx_before = before;
           cx_after = after })
  in
  match run_a inputs with
  | R_fuel ->
      Some (Undecided (Printf.sprintf "original %s exhausts the fuel bound" name))
  | R_raised msg -> (
      (* the original crashed on a valid input: compare failure behaviour *)
      match run_b inputs with
      | R_raised _ -> None
      | R_vals _ | R_fuel -> cx (Printf.sprintf "raised: %s" msg) "a result")
  | R_vals ra -> (
      match run_b inputs with
      | R_fuel -> cx (show_values ra) "out of fuel (divergence introduced)"
      | R_raised msg -> cx (show_values ra) (Printf.sprintf "raised: %s" msg)
      | R_vals rb ->
          if values_equal ra rb then None else cx (show_values ra) (show_values rb))

(* Inputs come from the *after* version's parameter types: a
   data-representation refactoring narrows value domains (word holding a
   byte value -> byte), and the narrower domain is the contract both
   versions must agree on; the interpreter's copy-in coercion widens the
   values losslessly for the before version. *)
let oracle ~seed ~trials ~fuel (env_a, prog_a) (env_b, prog_b) name : verdict =
  match (Ast.find_sub prog_a name, Ast.find_sub prog_b name) with
  | None, _ | _, None ->
      Undecided (Printf.sprintf "%s is not present in both versions" name)
  | Some sub_a, Some sub_b -> (
      let run_a = run ~fuel env_a prog_a sub_a in
      let run_b = run ~fuel env_b prog_b sub_b in
      let case inputs = run_case ~run_a ~run_b name inputs in
      match enumerate_inputs env_b sub_b with
      | Some all ->
          (* small domain: decide by exhaustion *)
          let valid = List.filter (satisfies_pre env_b prog_b sub_b) all in
          let rec go n = function
            | [] ->
                if n = 0 then Undecided (Printf.sprintf "no valid inputs for %s" name)
                else Agree { trials = n; exhaustive = true }
            | inputs :: rest -> (
                match case inputs with None -> go (n + 1) rest | Some v -> v)
          in
          go 0 valid
      | None ->
          (* zero trials would "agree" vacuously — that is no evidence *)
          if trials <= 0 then
            Undecided (Printf.sprintf "zero oracle trials configured for %s" name)
          else
            let rand = Random.State.make [| seed; Hashtbl.hash name; trials |] in
            let gen = gen_inputs env_b sub_b in
            let rec go k rejections =
              if k >= trials then Agree { trials = k; exhaustive = false }
              else if rejections > 200 * trials then
                Undecided (Printf.sprintf "cannot sample the precondition of %s" name)
              else
                let inputs = gen rand in
                if not (satisfies_pre env_b prog_b sub_b inputs) then
                  go k (rejections + 1)
                else
                  match case inputs with None -> go (k + 1) rejections | Some v -> v
            in
            go 0 0)

(** Exhaustive proof that [replacement] (an expression over the variable
    [index_var]) computes exactly the entries of constant table [table]:
    for every index in the table's range the interpreted values agree.
    Finite domain, every point checked — a decision, not a test. *)
let check_expr_table env program ~table ~index_var ~replacement : verdict =
  let rt = Interp.make env program in
  let lo, data = Value.as_array (Interp.global_value rt table) in
  let rec scan k =
    if k >= Array.length data then
      Agree { trials = Array.length data; exhaustive = true }
    else
      let i = lo + k and expected = data.(k) in
      let refuted after =
        Refuted
          { cx_sub = table; cx_inputs = string_of_int i;
            cx_before = Value.to_string expected; cx_after = after }
      in
      match Interp.eval_expr rt [ (index_var, Value.Vint i) ] replacement with
      | v when Value.equal v expected -> scan (k + 1)
      | v -> refuted (Value.to_string v)
      | exception (Interp.Stuck msg | Value.Runtime_error msg) ->
          refuted ("raised: " ^ msg)
      | exception Interp.Out_of_fuel -> refuted "out of fuel"
  in
  scan 0
