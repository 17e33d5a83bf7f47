(* Adjusting data structures (§6.2.1, case-study-specific category):

   "32-bit words were replaced by arrays of four bytes, and sets of four
   words were packed into states as defined by the specification.
   Constants and operators on those types were also redefined accordingly."

   [word_to_bytes] is the first adjustment: every 32-bit-word object is
   re-declared as a 4-byte array and the packed-word idioms are rewritten:

       shift_right (w, 24) and 255        ==>  w (0)          (extraction)
       shift_left (b0,24) or ... or b3    ==>  (b0,b1,b2,b3)  (packing)
       t and 16#ff000000#                 ==>  (t (0), 0, 0, 0)  (masking)
       w1 xor w2                          ==>  elementwise    (combination)

   The rewrite is type-directed: a [Band (x, 255)] is an extraction when a
   scalar is expected (array index, byte assignment) and a mask when a
   word is expected.  Applicability is checked by the framework re-running
   the type checker — any packed-word idiom the rewriter does not cover
   leaves an ill-typed mixed expression behind and the transformation is
   rejected.

   [group_vars] is the second adjustment: a family of same-typed locals
   (s0..s3) becomes one array object (the specification's State). *)

open Minispark

type conversion =
  | To_vec   (** array elements (or the scalar itself): word -> 4-byte vector *)
  | To_byte  (** array elements hold byte values: word -> byte *)

type plan = {
  word_type : string;        (** name of the 32-bit word type *)
  byte_name : string;        (** byte type to introduce, e.g. "byte" *)
  vec_name : string;         (** 4-byte vector type to introduce *)
  array_types : (string * conversion) list;  (** named array types to convert *)
}

let word_modulus = 0x100000000

(* ---------- original-program typing (just enough to drive the rewrite) *)

type kind =
  | Kvec    (** originally word, becomes a 4-byte vector *)
  | Kbyte   (** originally word holding a byte value, becomes byte *)
  | Kother

let classify_typ plan (t : Ast.typ) : kind =
  match t with
  | Ast.Tnamed n when String.equal n plan.word_type -> Kvec
  | Ast.Tnamed _ -> Kother (* named arrays classify at their element sites *)
  | Ast.Tmod m when m = word_modulus -> Kvec
  | _ -> Kother

(* ---------- type rewriting ---------- *)

let rec convert_typ plan (t : Ast.typ) : Ast.typ =
  match t with
  | Ast.Tnamed n when String.equal n plan.word_type -> Ast.Tnamed plan.vec_name
  | Ast.Tnamed _ -> t (* named array types are converted at their declaration *)
  | Ast.Tmod m when m = word_modulus -> Ast.Tnamed plan.vec_name
  | Ast.Tarray (lo, hi, elt) -> Ast.Tarray (lo, hi, convert_typ plan elt)
  | t -> t

let convert_decl_typ plan name (t : Ast.typ) : Ast.typ =
  match List.assoc_opt name plan.array_types with
  | Some To_vec -> (
      match t with
      | Ast.Tarray (lo, hi, _) -> Ast.Tarray (lo, hi, Ast.Tnamed plan.vec_name)
      | _ -> Transform.reject "type %s is not an array type" name)
  | Some To_byte -> (
      match t with
      | Ast.Tarray (lo, hi, _) -> Ast.Tarray (lo, hi, Ast.Tnamed plan.byte_name)
      | _ -> Transform.reject "type %s is not an array type" name)
  | None -> convert_typ plan t

(* split a 32-bit literal into its 4 bytes, big-endian *)
let split_word_literal n =
  Ast.Aggregate
    [ Ast.Int_lit ((n lsr 24) land 0xff);
      Ast.Int_lit ((n lsr 16) land 0xff);
      Ast.Int_lit ((n lsr 8) land 0xff);
      Ast.Int_lit (n land 0xff) ]

(* ---------- the expression rewriter ---------- *)

(* context: what the surrounding position expects *)
type expect =
  | Want_vec
  | Want_scalar

exception Skip
(** raised when an idiom does not match; the caller falls back *)

let mask_slot = function
  | 0xff000000 -> 0
  | 0xff0000 -> 1
  | 0xff00 -> 2
  | 0xff -> 3
  | _ -> raise Skip

let shift_slot = function 24 -> 0 | 16 -> 1 | 8 -> 2 | 0 -> 3 | _ -> raise Skip

type ctx = {
  plan : plan;
  var_kind : string -> kind;       (** classification of a variable occurrence *)
  var_elem_kind : string -> kind;  (** classification of [x (i)] *)
}

(* rewrite [e] (an expression of the original program); [expect] guides
   extraction-vs-mask disambiguation.  Returns the rewritten expression and
   the kind the rewritten expression has. *)
let rec rw ctx expect (e : Ast.expr) : Ast.expr * kind =
  match e with
  | Ast.Int_lit n -> (
      match expect with
      | Want_vec when n = 0 -> (split_word_literal 0, Kvec)
      | Want_vec -> (split_word_literal n, Kvec)
      | Want_scalar -> (e, Kother))
  | Ast.Bool_lit _ | Ast.Result -> (e, Kother)
  | Ast.Var x -> (e, ctx.var_kind x)
  | Ast.Old x -> (e, ctx.var_kind x)
  | Ast.Index (Ast.Var a, i) ->
      let i', _ = rw ctx Want_scalar i in
      (Ast.Index (Ast.Var a, i'), ctx.var_elem_kind a)
  | Ast.Index (a, i) ->
      let a', ka = rw ctx expect a in
      let i', _ = rw ctx Want_scalar i in
      let k = match ka with Kvec -> Kbyte | _ -> Kother in
      (Ast.Index (a', i'), k)
  | Ast.Unop (op, a) ->
      let a', _ = rw ctx Want_scalar a in
      (Ast.Unop (op, a'), Kother)
  (* ---- extraction / masking ---- *)
  | Ast.Binop (Ast.Band, lhs, Ast.Int_lit mask) -> (
      match rw_extraction ctx lhs mask expect with
      | Some r -> r
      | None -> rw_generic_binop ctx expect e)
  | Ast.Binop (Ast.Shr, w, Ast.Int_lit 24) -> (
      (* top-byte extraction without a mask *)
      match rw ctx Want_vec w with
      | w', Kvec -> (Ast.Index (w', Ast.Int_lit 0), Kbyte)
      | _ -> rw_generic_binop ctx expect e)
  | Ast.Binop ((Ast.Bor | Ast.Bxor), _, _) when expect = Want_vec -> (
      (* packing chain or vector combination *)
      match rw_pack_chain ctx e with
      | Some r -> (r, Kvec)
      | None -> rw_vector_chain ctx e)
  | Ast.Binop ((Ast.Bor | Ast.Bxor), a, b) -> (
      (* try vector combination anyway: operands may be vectors, but a
         literal where a scalar is wanted stays a scalar, not a word *)
      let literal = function Ast.Int_lit _ -> true | _ -> false in
      match if literal a || literal b then None else rw_try_vector ctx e with
      | Some r -> r
      | None -> rw_generic_binop ctx expect e)
  | Ast.Binop (_, _, _) -> rw_generic_binop ctx expect e
  | Ast.Call (f, args) ->
      let args' = List.map (fun a -> fst (rw ctx Want_scalar a)) args in
      (Ast.Call (f, args'), Kother)
  | Ast.Aggregate es ->
      (Ast.Aggregate (List.map (fun e -> fst (rw ctx Want_scalar e)) es), Kother)
  | Ast.Quantified (q, x, lo, hi, body) ->
      let lo', _ = rw ctx Want_scalar lo in
      let hi', _ = rw ctx Want_scalar hi in
      let body', _ = rw ctx Want_scalar body in
      (Ast.Quantified (q, x, lo', hi', body'), Kother)

and rw_generic_binop ctx expect e =
  match e with
  | Ast.Binop (op, a, b) ->
      let a', ka = rw ctx expect a in
      let b', kb = rw ctx expect b in
      (match (op, ka, kb) with
      | _, (Kbyte | Kother), (Kbyte | Kother) -> (Ast.Binop (op, a', b'), Kother)
      (* a leftover word-level operation on two vectors: only xor/or/and
         combine elementwise *)
      | (Ast.Bxor | Ast.Bor | Ast.Band), Kvec, Kvec -> (combine_vec op [ a'; b' ], Kvec)
      | _ ->
          Transform.reject "operator %s applied to converted words in %s"
            (Pretty.expr_to_string e) (Pretty.expr_to_string e))
  | _ -> assert false

(* extraction [(w >> k) and 255] / [w and 255] when a scalar is wanted;
   masking [(x and 16#ff0000#)] when a vector is wanted *)
and rw_extraction ctx lhs mask expect : (Ast.expr * kind) option =
  match expect with
  | Want_scalar -> (
      match lhs with
      | Ast.Binop (Ast.Shr, w, Ast.Int_lit k) when mask = 0xff -> (
          match rw ctx Want_vec w with
          | w', Kvec -> (
              match shift_slot k with
              | slot -> Some (Ast.Index (w', Ast.Int_lit slot), Kbyte)
              | exception Skip -> None)
          | _ -> None)
      | w when mask = 0xff -> (
          match rw ctx Want_vec w with
          | w', Kvec -> Some (Ast.Index (w', Ast.Int_lit 3), Kbyte)
          | _ -> None)
      | _ -> None)
  | Want_vec -> (
      match mask_slot mask with
      | slot -> (
          match rw ctx Want_vec lhs with
          | w', Kvec ->
              let elems =
                List.init 4 (fun j ->
                    if j = slot then Ast.Index (w', Ast.Int_lit j) else Ast.Int_lit 0)
              in
              Some (Ast.Aggregate elems, Kvec)
          | _ -> None)
      | exception Skip -> None)

(* packing: an or-chain of shifted byte values, one per slot *)
and rw_pack_chain ctx e : Ast.expr option =
  let rec flatten e =
    match e with
    | Ast.Binop (Ast.Bor, a, b) -> flatten a @ flatten b
    | e -> [ e ]
  in
  let operands = flatten e in
  if List.length operands <> 4 then None
  else
    let slot_of e =
      match e with
      | Ast.Binop (Ast.Shl, x, Ast.Int_lit k) -> (
          match shift_slot k with
          | 3 -> None (* shl by 0 would be odd *)
          | s -> Some (s, x)
          | exception Skip -> None)
      | x -> Some (3, x)
    in
    let slots = List.map slot_of operands in
    if List.exists Option.is_none slots then None
    else
      let slots = List.map Option.get slots in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) slots in
      if List.map fst sorted <> [ 0; 1; 2; 3 ] then None
      else
        let elems =
          List.map
            (fun (_, x) ->
              match rw ctx Want_scalar x with
              | x', (Kbyte | Kother) -> x'
              | _, Kvec -> raise Skip)
            sorted
        in
        Some (Ast.Aggregate elems)

(* xor/or chains over vector operands: elementwise combination *)
and rw_vector_chain ctx e : Ast.expr * kind =
  match rw_try_vector ctx e with
  | Some r -> r
  | None -> Transform.reject "cannot convert word expression %s" (Pretty.expr_to_string e)

and rw_try_vector ctx e : (Ast.expr * kind) option =
  let rec flatten e =
    match e with
    | Ast.Binop (Ast.Bxor, a, b) -> flatten a @ flatten b
    | e -> [ e ]
  in
  match e with
  | Ast.Binop (Ast.Bxor, _, _) -> (
      let operands = flatten e in
      let converted = List.map (fun o -> rw ctx Want_vec o) operands in
      if List.for_all (fun (_, k) -> k = Kvec) converted then
        Some (combine_vec Ast.Bxor (List.map (fun (o, k) -> vec_of ctx o k) converted), Kvec)
      else None)
  | Ast.Binop (Ast.Bor, _, _) -> (
      (* or of disjoint masks behaves like xor on vectors *)
      let rec flatten_or e =
        match e with
        | Ast.Binop (Ast.Bor, a, b) -> flatten_or a @ flatten_or b
        | e -> [ e ]
      in
      let operands = flatten_or e in
      let converted = List.map (fun o -> rw ctx Want_vec o) operands in
      if List.for_all (fun (_, k) -> k = Kvec) converted then
        Some (combine_vec Ast.Bor (List.map (fun (o, k) -> vec_of ctx o k) converted), Kvec)
      else None)
  | _ -> None

(* element access into a rewritten vector expression *)
and vec_elem e j =
  match e with
  | Ast.Aggregate es -> List.nth es j
  | e -> Ast.Index (e, Ast.Int_lit j)

and vec_of _ctx e k =
  match k with
  | Kvec -> e
  | _ -> Transform.reject "expected a vector expression: %s" (Pretty.expr_to_string e)

(* elementwise combination, dropping zero operands *)
and combine_vec op vecs =
  let elem j =
    let parts =
      List.filter_map
        (fun v ->
          match vec_elem v j with Ast.Int_lit 0 -> None | e -> Some e)
        vecs
    in
    match parts with
    | [] -> Ast.Int_lit 0
    | first :: rest -> List.fold_left (fun acc e -> Ast.Binop (op, acc, e)) first rest
  in
  Ast.Aggregate (List.init 4 elem)

(* ---------- statements ---------- *)

let rec rw_stmt ctx (target_kind : Ast.lvalue -> kind) (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Null -> Ast.Null
  | Ast.Assert e -> Ast.Assert (fst (rw ctx Want_scalar e))
  | Ast.Assign (lv, e) ->
      let lv' = rw_lvalue ctx lv in
      let expect = match target_kind lv with Kvec -> Want_vec | _ -> Want_scalar in
      let e', _ = rw ctx expect e in
      Ast.Assign (lv', e')
  | Ast.If (branches, els) ->
      Ast.If
        ( List.map
            (fun (g, body) ->
              (fst (rw ctx Want_scalar g), List.map (rw_stmt ctx target_kind) body))
            branches,
          List.map (rw_stmt ctx target_kind) els )
  | Ast.For fl ->
      Ast.For
        {
          fl with
          Ast.for_lo = fst (rw ctx Want_scalar fl.Ast.for_lo);
          for_hi = fst (rw ctx Want_scalar fl.Ast.for_hi);
          for_invariants = List.map (fun i -> fst (rw ctx Want_scalar i)) fl.Ast.for_invariants;
          for_body = List.map (rw_stmt ctx target_kind) fl.Ast.for_body;
        }
  | Ast.While wl ->
      Ast.While
        {
          Ast.while_cond = fst (rw ctx Want_scalar wl.Ast.while_cond);
          while_invariants =
            List.map (fun i -> fst (rw ctx Want_scalar i)) wl.Ast.while_invariants;
          while_body = List.map (rw_stmt ctx target_kind) wl.Ast.while_body;
        }
  | Ast.Call_stmt (f, args) ->
      Ast.Call_stmt (f, List.map (fun a -> fst (rw ctx Want_scalar a)) args)
  | Ast.Return (Some e) -> Ast.Return (Some (fst (rw ctx Want_scalar e)))
  | Ast.Return None -> Ast.Return None

and rw_lvalue ctx (lv : Ast.lvalue) : Ast.lvalue =
  match lv with
  | Ast.Lvar x -> Ast.Lvar x
  | Ast.Lindex (lv, i) -> Ast.Lindex (rw_lvalue ctx lv, fst (rw ctx Want_scalar i))

(* ---------- the transformation ---------- *)

let word_to_bytes ~plan () =
  Transform.make
    ~name:(Printf.sprintf "word_to_bytes(%s)" plan.word_type)
    ~category:Transform.Adjust_data_structures
    ~describe:"replace 32-bit words by arrays of four bytes and rewrite packed idioms"
    (fun env program ->
      (* kind tables per subprogram, from the original declarations *)
      let const_types =
        List.map (fun (c : Ast.const_decl) -> (c.Ast.k_name, c.Ast.k_typ))
          (Ast.constants program)
      in
      let global_types =
        List.map (fun (v : Ast.var_decl) -> (v.Ast.v_name, v.Ast.v_typ))
          (Ast.global_vars program)
      in
      let make_ctx (sub : Ast.subprogram) =
        let local_types =
          List.map (fun (p : Ast.param) -> (p.Ast.par_name, p.Ast.par_typ)) sub.Ast.sub_params
          @ List.map (fun (v : Ast.var_decl) -> (v.Ast.v_name, v.Ast.v_typ)) sub.Ast.sub_locals
          @ const_types @ global_types
        in
        let var_kind x =
          match List.assoc_opt x local_types with
          | Some t -> classify_typ plan (Typecheck.resolve env t |> fun rt ->
              match t with Ast.Tnamed _ -> t | _ -> rt)
          | None -> Kother
        in
        (* classification must look through named types *)
        let var_kind x =
          ignore var_kind;
          match List.assoc_opt x local_types with
          | Some (Ast.Tnamed n) when String.equal n plan.word_type -> Kvec
          | Some (Ast.Tnamed _) -> Kother
          | Some t -> classify_typ plan (Typecheck.resolve env t)
          | None -> Kother
        in
        let var_elem_kind x =
          match List.assoc_opt x local_types with
          | Some (Ast.Tnamed n) -> (
              match List.assoc_opt n plan.array_types with
              | Some To_vec -> Kvec
              | Some To_byte -> Kbyte
              | None -> (
                  match Typecheck.resolve env (Ast.Tnamed n) with
                  | Ast.Tarray (_, _, elt) -> classify_typ plan elt
                  | _ -> Kother))
          | Some t -> (
              match Typecheck.resolve env t with
              | Ast.Tarray (_, _, elt) -> classify_typ plan elt
              | _ -> Kother)
          | None -> Kother
        in
        let target_kind lv =
          match lv with
          | Ast.Lvar x -> var_kind x
          | Ast.Lindex (Ast.Lvar x, _) -> var_elem_kind x
          | Ast.Lindex (Ast.Lindex _, _) -> Kbyte (* element of a vector *)
        in
        ({ plan; var_kind; var_elem_kind }, target_kind)
      in
      (* rewrite declarations *)
      let decls =
        List.map
          (fun decl ->
            match decl with
            | Ast.Dtype (n, t) -> Ast.Dtype (n, convert_decl_typ plan n t)
            | Ast.Dconst c ->
                let kind_elem =
                  match c.Ast.k_typ with
                  | Ast.Tnamed n -> List.assoc_opt n plan.array_types
                  | _ -> None
                in
                let value =
                  match (kind_elem, c.Ast.k_value) with
                  | Some To_vec, Ast.Aggregate es ->
                      Ast.Aggregate
                        (List.map
                           (function
                             | Ast.Int_lit n -> split_word_literal n
                             | e ->
                                 Transform.reject "non-literal table entry %s"
                                   (Pretty.expr_to_string e))
                           es)
                  | _, v -> v
                in
                Ast.Dconst { c with Ast.k_value = value; k_typ = c.Ast.k_typ }
            | Ast.Dvar v -> Ast.Dvar { v with Ast.v_typ = convert_typ plan v.Ast.v_typ }
            | Ast.Dsub sub ->
                let ctx, target_kind = make_ctx sub in
                let params =
                  List.map
                    (fun (p : Ast.param) ->
                      { p with Ast.par_typ = convert_typ plan p.Ast.par_typ })
                    sub.Ast.sub_params
                in
                let locals =
                  List.map
                    (fun (v : Ast.var_decl) ->
                      {
                        v with
                        Ast.v_typ = convert_typ plan v.Ast.v_typ;
                        v_init = Option.map (fun e -> fst (rw ctx Want_scalar e)) v.Ast.v_init;
                      })
                    sub.Ast.sub_locals
                in
                Ast.Dsub
                  {
                    sub with
                    Ast.sub_params = params;
                    sub_locals = locals;
                    sub_body = List.map (rw_stmt ctx target_kind) sub.Ast.sub_body;
                    sub_pre = Option.map (fun e -> fst (rw ctx Want_scalar e)) sub.Ast.sub_pre;
                    sub_post = Option.map (fun e -> fst (rw ctx Want_scalar e)) sub.Ast.sub_post;
                  })
          program.Ast.prog_decls
      in
      (* introduce the byte and vector types at the front if missing *)
      let has_type n =
        List.exists
          (function Ast.Dtype (m, _) -> String.equal m n | _ -> false)
          decls
      in
      let prelude =
        (if has_type plan.byte_name then []
         else [ Ast.Dtype (plan.byte_name, Ast.Tmod 256) ])
        @
        if has_type plan.vec_name then []
        else [ Ast.Dtype (plan.vec_name, Ast.Tarray (0, 3, Ast.Tnamed plan.byte_name)) ]
      in
      { program with Ast.prog_decls = prelude @ decls })

(* ------------------------------------------------------------------ *)
(* Grouping scalars into an array ("packing four words into a state")  *)
(* ------------------------------------------------------------------ *)

let group_vars ~proc ~vars ~array_name ~elem_type ?array_typ () =
  Transform.make
    ~name:(Printf.sprintf "group_vars(%s.%s)" proc array_name)
    ~category:Transform.Adjust_data_structures
    ~describe:
      (Printf.sprintf "pack locals %s of %s into array %s" (String.concat "," vars) proc
         array_name)
    (fun _env program ->
      let sub = Ast.find_sub_exn program proc in
      List.iter
        (fun v ->
          if
            not
              (List.exists
                 (fun (l : Ast.var_decl) -> String.equal l.Ast.v_name v)
                 sub.Ast.sub_locals)
          then Transform.reject "%s is not a local of %s" v proc)
        vars;
      if
        List.exists (fun (l : Ast.var_decl) -> String.equal l.Ast.v_name array_name)
          sub.Ast.sub_locals
      then Transform.reject "local %s already exists" array_name;
      let index_of x =
        let rec go k = function
          | [] -> None
          | v :: rest -> if String.equal v x then Some k else go (k + 1) rest
        in
        go 0 vars
      in
      let rw_expr =
        Ast.map_expr (function
          | Ast.Var x as e -> (
              match index_of x with
              | Some k -> Ast.Index (Ast.Var array_name, Ast.Int_lit k)
              | None -> e)
          | e -> e)
      in
      let rec rw_lv = function
        | Ast.Lvar x -> (
            match index_of x with
            | Some k -> Ast.Lindex (Ast.Lvar array_name, Ast.Int_lit k)
            | None -> Ast.Lvar x)
        | Ast.Lindex (lv, i) -> Ast.Lindex (rw_lv lv, rw_expr i)
      in
      let body =
        Ast.map_stmts
          (fun s ->
            let s = match s with Ast.Assign (lv, e) -> Ast.Assign (rw_lv lv, e) | s -> s in
            [ Ast.map_own_exprs rw_expr s ])
          sub.Ast.sub_body
      in
      let locals =
        List.filter
          (fun (l : Ast.var_decl) -> not (List.mem l.Ast.v_name vars))
          sub.Ast.sub_locals
        @ [ { Ast.v_name = array_name;
              v_typ =
                Option.value array_typ
                  ~default:(Ast.Tarray (0, List.length vars - 1, elem_type));
              v_init = None } ]
      in
      Ast.replace_sub program { sub with Ast.sub_body = body; sub_locals = locals })
