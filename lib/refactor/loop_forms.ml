(* Adjusting loop forms (§5.1): loops written for efficiency or ease of use
   are re-shaped so invariants can be stated naturally.

   - [reindex]: shift the iteration space ([for i in 0..9] over [w(4*i+4)]
     becomes [for j in 4..43] over [w(j)] when the stride divides out).
   - [absorb_guarded_tail]: extend a constant-bound loop over trailing
     conditional clones of its body, making the bound an expression whose
     value is validated exhaustively over the (finite) domain of its
     variables — e.g. the AES round loop absorbing the [nr > 10] and
     [nr > 12] rounds. *)

open Minispark

let nth_stmt body at =
  match List.nth_opt body at with
  | Some s -> s
  | None -> Transform.reject "no statement at index %d" at

(** [reindex ~proc ~at ~offset ~var]: the for-loop at top-level statement
    [at] gets a new iteration space shifted by [offset] and a new loop
    variable [var]; occurrences of the old variable are replaced by
    [var - offset] and constant-folded. *)
let reindex ~proc ~at ~offset ~var =
  Transform.make
    ~name:(Printf.sprintf "reindex(%s@%d,%+d)" proc at offset)
    ~category:Transform.Adjust_loop_forms
    ~describe:(Printf.sprintf "shift the loop at statement %d of %s by %d" at proc offset)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      let body = sub.Ast.sub_body in
      match nth_stmt body at with
      | Ast.For fl ->
          if List.mem var (Ast.read_vars fl.Ast.for_body) then
            Transform.reject "new loop variable %s already used in the body" var;
          let replacement =
            Transform.fold_expr
              (Ast.Binop (Ast.Sub, Ast.Var var, Ast.Int_lit offset))
          in
          let body' =
            Ast.subst_stmts [ (fl.Ast.for_var, replacement) ] fl.Ast.for_body
            |> Transform.fold_stmts
          in
          let shift e =
            Transform.fold_expr (Ast.Binop (Ast.Add, e, Ast.Int_lit offset))
          in
          let fl' =
            {
              fl with
              Ast.for_var = var;
              for_lo = shift fl.Ast.for_lo;
              for_hi = shift fl.Ast.for_hi;
              for_body = body';
            }
          in
          let new_body = Transform.splice body ~from:at ~len:1 [ Ast.For fl' ] in
          Ast.replace_sub program { sub with Ast.sub_body = new_body }
      | _ -> Transform.reject "statement %d of %s is not a for-loop" at proc)

(* evaluate a closed integer expression under a valuation *)
let rec eval_closed valuation (e : Ast.expr) : int =
  match Transform.fold_expr (Ast.subst_expr valuation e) with
  | Ast.Int_lit n -> n
  | Ast.Binop (Ast.Div, a, b) ->
      let d = eval_closed valuation b in
      if d = 0 then Transform.reject "division by zero in bound expression"
      else eval_closed valuation a / d
  | e ->
      Transform.reject "bound expression %s is not closed under the domain"
        (Pretty.expr_to_string e)

let rec eval_guard valuation (g : Ast.expr) : bool =
  match g with
  | Ast.Bool_lit b -> b
  | Ast.Binop (Ast.And, a, b) -> eval_guard valuation a && eval_guard valuation b
  | Ast.Binop (Ast.Or, a, b) -> eval_guard valuation a || eval_guard valuation b
  | Ast.Unop (Ast.Not, a) -> not (eval_guard valuation a)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
      let x = eval_closed valuation a and y = eval_closed valuation b in
      (match op with
      | Ast.Eq -> x = y
      | Ast.Ne -> x <> y
      | Ast.Lt -> x < y
      | Ast.Le -> x <= y
      | Ast.Gt -> x > y
      | Ast.Ge -> x >= y
      | _ -> assert false)
  | _ -> Transform.reject "guard %s is not decidable over the domain" (Pretty.expr_to_string g)

(** [absorb_guarded_tail ~proc ~at ~tail_count ~new_hi ~domain]: the
    for-loop at [at] is followed by [tail_count] conditionals whose
    branches are instances of the loop body at the next indices.  The loop
    bound becomes [new_hi].  [domain] enumerates the possible values of the
    free variables of [new_hi] and of the guards; each must be an [in]
    parameter that the precondition restricts to listed values
    ([x = a or x = b ...]).  The applicability check verifies, for every
    valuation, that the new iteration count equals the old one and that
    every absorbed statement is the corresponding body instance. *)
let absorb_guarded_tail ~proc ~at ~tail_count ~new_hi ~domain =
  Transform.make
    ~name:(Printf.sprintf "absorb_guarded_tail(%s@%d,%d)" proc at tail_count)
    ~category:Transform.Adjust_loop_forms
    ~describe:
      (Printf.sprintf
         "extend the loop at statement %d of %s over %d trailing conditionals" at proc
         tail_count)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      (* the domain is trusted only where the contract pins it: each of its
         variables is an in parameter whose precondition restricts it to
         values the domain lists *)
      let pinned = Equivalence.domains_of_pre sub.Ast.sub_pre in
      List.iter
        (fun (x, values) ->
          if
            not
              (List.exists
                 (fun (p : Ast.param) ->
                   p.Ast.par_name = x && p.Ast.par_mode = Ast.Mode_in)
                 sub.Ast.sub_params)
          then Transform.reject "domain variable %s is not an in parameter of %s" x proc;
          match List.assoc_opt x pinned with
          | Some (Equivalence.Dmember vs) when List.for_all (fun v -> List.mem v values) vs
            ->
              ()
          | _ ->
              Transform.reject
                "the precondition of %s does not restrict %s to the domain" proc x)
        domain;
      let body = sub.Ast.sub_body in
      let fl =
        match nth_stmt body at with
        | Ast.For fl when not fl.Ast.for_reverse -> fl
        | Ast.For _ -> Transform.reject "reverse loops are not supported here"
        | _ -> Transform.reject "statement %d of %s is not a for-loop" at proc
      in
      let lo =
        match fl.Ast.for_lo with
        | Ast.Int_lit n -> n
        | _ -> Transform.reject "loop lower bound must be constant"
      in
      let hi =
        match fl.Ast.for_hi with
        | Ast.Int_lit n -> n
        | _ -> Transform.reject "loop upper bound must be constant"
      in
      let tails = Transform.slice body ~from:(at + 1) ~len:tail_count in
      (* each tail conditional: single branch, no else; count its body
         instances against the loop body *)
      let instance_at idx =
        Transform.fold_stmts
          (Ast.subst_stmts [ (fl.Ast.for_var, Ast.Int_lit idx) ] fl.Ast.for_body)
      in
      let body_len = List.length fl.Ast.for_body in
      let guarded =
        List.map
          (function
            | Ast.If ([ (g, stmts) ], []) ->
                let n = List.length stmts in
                if n mod body_len <> 0 then
                  Transform.reject "guarded block length is not a body multiple";
                (g, n / body_len, stmts)
            | _ -> Transform.reject "trailing statement is not a single-branch if")
          tails
      in
      (* structural check: guarded blocks are consecutive body instances *)
      let next_index = ref (hi + 1) in
      List.iter
        (fun (_, reps, stmts) ->
          let expected =
            List.concat (List.init reps (fun k -> instance_at (!next_index + k)))
          in
          if not (Ast.equal_stmts (Transform.fold_stmts stmts) expected) then
            Transform.reject
              "guarded statements are not the loop body instances at indices %d.."
              !next_index;
          next_index := !next_index + reps)
        guarded;
      (* semantic check over the domain: iteration counts agree *)
      let valuations =
        (* cartesian product of the domain *)
        List.fold_left
          (fun acc (x, values) ->
            List.concat_map (fun v -> List.map (fun row -> (x, Ast.Int_lit v) :: row) acc) values)
          [ [] ] domain
      in
      if valuations = [ [] ] && domain <> [] then Transform.reject "empty domain";
      List.iter
        (fun valuation ->
          let new_count = eval_closed valuation new_hi - lo + 1 in
          let old_count =
            (hi - lo + 1)
            + List.fold_left
                (fun acc (g, reps, _) -> if eval_guard valuation g then acc + reps else acc)
                0 guarded
          in
          if new_count <> old_count then
            Transform.reject "iteration count mismatch under a domain valuation";
          (* guards must be monotone: a later guard cannot hold when an
             earlier one fails, or absorbed indices would be skipped *)
          let rec mono = function
            | (g1, _, _) :: ((g2, _, _) :: _ as rest) ->
                if eval_guard valuation g2 && not (eval_guard valuation g1) then
                  Transform.reject "guards are not monotone under a domain valuation";
                mono rest
            | _ -> ()
          in
          mono guarded)
        valuations;
      let fl' = { fl with Ast.for_hi = new_hi } in
      let body' =
        Transform.splice body ~from:at ~len:(1 + tail_count) [ Ast.For fl' ]
      in
      Ast.replace_sub program { sub with Ast.sub_body = body' })
