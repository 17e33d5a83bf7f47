(* Semantics-preservation checking (§5.1).

   The paper proves, in PVS, the theorem
       init_state(P) = init_state(P') => final_state(P) = final_state(P')
   for each generalised transformation.  This module is the mechanical
   substitute: for the *instance* actually applied, it decides or tests the
   theorem directly —

   - [check_sub]: differential execution of one subprogram in two program
     versions over (a) deterministically generated random inputs and (b)
     exhaustive enumeration when the input domain is small;
   - [check_program]: differential execution of a set of entry points;
   - [check_expr_table]: exhaustive equality of a table and a replacement
     expression over the table's index range (used by table reversal — for
     finite domains this *is* a proof, not a test).

   A deterministic xorshift PRNG keeps every check reproducible. *)

open Minispark

type verdict =
  | Equivalent of int   (** number of trials/points checked *)
  | Counterexample of string

let is_equivalent = function Equivalent _ -> true | Counterexample _ -> false

(* deterministic xorshift64 *)
let make_rng seed =
  let state = ref (if seed = 0 then 0x1e3779b97f4a7c15 else seed) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int

let rec random_value env rng (t : Ast.typ) : Value.t =
  match Typecheck.resolve env t with
  | Ast.Tbool -> Value.Vbool (rng () land 1 = 0)
  | Ast.Tint (Some (lo, hi)) -> Value.Vint (lo + (rng () mod (hi - lo + 1)))
  | Ast.Tint None -> Value.Vint ((rng () mod 2001) - 1000)
  | Ast.Tmod m -> Value.Vmod (rng () mod m, m)
  | Ast.Tarray (lo, hi, elt) ->
      Value.Varray (lo, Array.init (hi - lo + 1) (fun _ -> random_value env rng elt))
  | Ast.Tnamed _ -> assert false

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

let rec constrained_value env rng (t : Ast.typ) (d : domain option) : Value.t =
  match d with
  | Some (Dmember vs) -> (
      let v = List.nth vs (rng () mod List.length vs) in
      match Typecheck.resolve env t with
      | Ast.Tmod m -> Value.Vmod (v mod m, m)
      | _ -> Value.Vint v)
  | Some (Dbelow n) -> (
      match Typecheck.resolve env t with
      | Ast.Tmod m -> Value.Vmod (rng () mod min n m, m)
      | Ast.Tint (Some (lo, _)) -> Value.Vint (lo + (rng () mod max 1 (n - lo)))
      | _ -> Value.Vint (rng () mod n))
  | Some (Delems_below n) -> (
      match Typecheck.resolve env t with
      | Ast.Tarray (lo, hi, elt) ->
          Value.Varray
            ( lo,
              Array.init (hi - lo + 1) (fun _ ->
                  constrained_value env rng elt (Some (Dbelow n))) )
      | t -> random_value env rng t)
  | None -> random_value env rng t

(* in-domain inputs for a subprogram: values for in / in-out parameters,
   respecting the sampling domains extracted from the precondition *)
let random_inputs env rng (sub : Ast.subprogram) =
  let domains = domains_of_pre sub.Ast.sub_pre in
  List.filter_map
    (fun (p : Ast.param) ->
      match p.Ast.par_mode with
      | Ast.Mode_in | Ast.Mode_in_out ->
          Some
            (constrained_value env rng p.Ast.par_typ
               (List.assoc_opt p.Ast.par_name domains))
      | Ast.Mode_out -> None)
    sub.Ast.sub_params

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

let run_sub ?fuel env program (sub : Ast.subprogram) inputs =
  let rt = Interp.make ?fuel env program in
  if sub.Ast.sub_return <> None then [ Interp.run_function rt sub.Ast.sub_name inputs ]
  else Interp.run_procedure rt sub.Ast.sub_name inputs

let values_equal a b =
  List.length a = List.length b && List.for_all2 Value.equal a b

(* ------------------------------------------------------------------ *)
(* Memoized oracle substrate                                           *)
(*                                                                     *)
(* A refactoring history runs the same behaviour over and over: step  *)
(* k's after-program is step k+1's before-program, and a step leaves  *)
(* most subprograms untouched.  Runs are therefore memoized per domain *)
(* on what can influence them — the target's behaviour closure (see   *)
(* [closure_digest]), the fuel left after global initialisation and   *)
(* the inputs — not on the whole program, so a run is reused across   *)
(* program versions whose edits lie outside the closure.  Generated   *)
(* inputs are memoized on the whole after-program.  Both tables share *)
(* one bound and one oldest-first eviction rule; verdicts and         *)
(* messages are bit-identical to the unmemoized computation.          *)
(* ------------------------------------------------------------------ *)

type cases =
  | C_exhaustive of Value.t list list
  | C_sampled of Value.t list list
  | C_cannot_sample

type outcome =
  | R_vals of Value.t list
  | R_raised of string
  | R_fuel

let memo_cap = 512

type memos = {
  inputs : (string, cases) Memo.t;
  runs : (string, outcome) Memo.t;
}

let memos_key : memos Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { inputs = Memo.create memo_cap; runs = Memo.create memo_cap })

let memos () = Domain.DLS.get memos_key
let run_memo_stats () = Memo.stats (memos ()).runs

let memo_readings () =
  ("oracle_memo", run_memo_stats ()) :: ("interp_memo", Interp.memo_stats ())
  :: Share.memo_stats ()

let marshal_digest x =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* Digest of every declaration a run of [name] can observe
   ([Share.closure_digest]), rooted at [name], every type declaration
   (resolution and coercion read them) and every global initialiser that
   calls a subprogram (a call during global initialisation could write a
   global the target reads).  Nothing else executes in a run whose global
   initialisation succeeds. *)
let closure_digest (prog : Ast.program) name =
  let subs = Hashtbl.create 32 in
  List.iter
    (fun (sp : Ast.subprogram) -> Hashtbl.replace subs sp.Ast.sub_name ())
    (Ast.subprograms prog);
  let is_sub = Hashtbl.mem subs in
  Share.closure_digest prog
    (name
    :: List.filter_map
         (fun d ->
           match d with
           | Ast.Dtype (n, _) -> Some n
           | Ast.Dconst _ | Ast.Dvar _ ->
               if List.exists is_sub (Share.decl_refs d) then Some (Ast.decl_name d)
               else None
           | Ast.Dsub _ -> None)
         prog.Ast.prog_decls)

let outcome_of run =
  match run () with
  | vs -> R_vals vs
  | exception (Interp.Stuck msg | Value.Runtime_error msg) -> R_raised msg
  | exception Interp.Out_of_fuel -> R_fuel

(* [env] must be [prog]'s own type environment.  A run's outcome is a
   function of its key: fuel only bounds the work, and a memo hit skips
   the run's fuel as Interp's const-function memo already does.  When
   global initialisation fails every run fails the same way, unmemoized. *)
let runner ?fuel env prog (sub : Ast.subprogram) : Value.t list -> outcome =
  let run inputs = outcome_of (fun () -> run_sub ?fuel env prog sub inputs) in
  match Interp.make ?fuel env prog with
  | exception (Interp.Stuck _ | Value.Runtime_error _ | Interp.Out_of_fuel) -> run
  | rt ->
      let prefix =
        Printf.sprintf "%s:%s:%d:" sub.Ast.sub_name
          (closure_digest prog sub.Ast.sub_name)
          (Interp.fuel_left rt)
      in
      fun inputs ->
        Memo.find (memos ()).runs
          (prefix ^ marshal_digest inputs)
          (fun () -> run inputs)

(* inputs are generated from the *after* version's parameter types: a
   data-representation refactoring narrows value domains (word holding a
   byte value -> byte), and the narrower domain is the contract both
   versions must agree on; the interpreter's copy-in coercion widens the
   values losslessly for the before version *)
let cases_for ~seed ~trials env_b prog_b (sub_b : Ast.subprogram) name : cases =
  let key =
    Printf.sprintf "%s:%s:%d:%d" (Share.program_digest prog_b) name seed trials
  in
  Memo.find (memos ()).inputs key (fun () ->
      match enumerate_inputs env_b sub_b with
      | Some cases ->
          C_exhaustive (List.filter (satisfies_pre env_b prog_b sub_b) cases)
      | None ->
          let rng = make_rng seed in
          let rec go k acc rejections =
            if k >= trials then C_sampled (List.rev acc)
            else if rejections > 200 * trials then C_cannot_sample
            else
              let inputs = random_inputs env_b rng sub_b in
              if satisfies_pre env_b prog_b sub_b inputs then
                go (k + 1) (inputs :: acc) rejections
              else go k acc (rejections + 1)
          in
          go 0 [] 0)

(** Differentially check one subprogram across two program versions.  The
    subprogram (same name) must exist in both; inputs are exhaustive when
    the domain is small, sampled otherwise. *)
let check_sub ?(seed = 42) ?(trials = 64) ?fuel env_a prog_a env_b prog_b name :
    verdict =
  let sub_a = Ast.find_sub_exn prog_a name in
  let sub_b = Ast.find_sub_exn prog_b name in
  match cases_for ~seed ~trials env_b prog_b sub_b name with
  | C_cannot_sample ->
      Counterexample (Printf.sprintf "cannot sample the precondition of %s" name)
  | C_exhaustive cases | C_sampled cases ->
      let run_a = runner ?fuel env_a prog_a sub_a in
      let run_b = runner ?fuel env_b prog_b sub_b in
      let msg_raised m = Printf.sprintf "%s raised: %s" name m in
      let msg_fuel inputs =
        Printf.sprintf "%s(%s): out of fuel (divergence suspected)" name
          (String.concat ", " (List.map Value.to_string inputs))
      in
      let msg_diff inputs ra rb =
        Printf.sprintf "%s(%s): %s vs %s" name
          (String.concat ", " (List.map Value.to_string inputs))
          (String.concat ", " (List.map Value.to_string ra))
          (String.concat ", " (List.map Value.to_string rb))
      in
      (* the after version is inspected first, matching the historical
         right-to-left evaluation of the compared pair *)
      let case_failure inputs =
        match run_b inputs with
        | R_raised m -> Some (msg_raised m)
        | R_fuel -> Some (msg_fuel inputs)
        | R_vals rb -> (
            match run_a inputs with
            | R_raised m -> Some (msg_raised m)
            | R_fuel -> Some (msg_fuel inputs)
            | R_vals ra ->
                if values_equal ra rb then None else Some (msg_diff inputs ra rb))
      in
      let rec scan = function
        | [] -> Equivalent (List.length cases)
        | inputs :: rest -> (
            match case_failure inputs with
            | Some msg -> Counterexample msg
            | None -> scan rest)
      in
      scan cases

(** Differentially check a whole program through the given entry points. *)
let check_program ?(seed = 42) ?(trials = 32) ?fuel ~entries env_a prog_a env_b
    prog_b : verdict =
  let rec go total = function
    | [] -> Equivalent total
    | name :: rest -> (
        match check_sub ~seed ~trials ?fuel env_a prog_a env_b prog_b name with
        | Equivalent n -> go (total + n) rest
        | Counterexample _ as c -> c)
  in
  go 0 entries

(** Exhaustive proof that [replacement] (an expression over the variable
    [index_var]) computes exactly the entries of constant table [table]:
    for every index in the table's range the interpreted values agree.
    Finite domain, every point checked — a decision, not a test. *)
let check_expr_table env program ~table ~index_var ~replacement : verdict =
  let rt = Interp.make env program in
  let table_value = Interp.global_value rt table in
  let lo, data = Value.as_array table_value in
  let bad = ref None in
  Array.iteri
    (fun k expected ->
      if !bad = None then
        let i = lo + k in
        match Interp.eval_expr rt [ (index_var, Value.Vint i) ] replacement with
        | v when Value.equal v expected -> ()
        | v ->
            bad :=
              Some
                (Printf.sprintf "%s(%d) = %s but replacement yields %s" table i
                   (Value.to_string expected) (Value.to_string v))
        | exception (Interp.Stuck msg | Value.Runtime_error msg) ->
            bad := Some (Printf.sprintf "replacement stuck at %s(%d): %s" table i msg)
        | exception Interp.Out_of_fuel ->
            bad := Some (Printf.sprintf "replacement out of fuel at %s(%d)" table i))
    data;
  match !bad with
  | None -> Equivalent (Array.length data)
  | Some msg -> Counterexample msg
