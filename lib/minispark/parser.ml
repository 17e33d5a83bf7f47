(* Recursive-descent parser for MiniSpark.

   Name-application ambiguity: [a (i)] is an array indexing and [f (x)] a
   function call, indistinguishable without a symbol table.  The parser
   emits [Call] for the first argument group and [Index] for subsequent
   groups; [Typecheck.check] normalises [Call] into [Index] (and intrinsic
   shift calls into [Shl]/[Shr]) once declarations are known. *)

open Ast

exception Error of string * int * int

type state = {
  toks : Lexer.tokens;
  mutable pos : int;
}

let peek st = st.toks.Lexer.toks.(st.pos)
let peek2 st =
  if st.pos + 1 < st.toks.Lexer.count then st.toks.Lexer.toks.(st.pos + 1)
  else Lexer.EOF

(* token equality without the polymorphic compare: the parser tests the
   next token on every step *)
let tok_eq (a : Lexer.token) (b : Lexer.token) =
  match (a, b) with
  | INT x, INT y -> Int.equal x y
  | IDENT x, IDENT y | KW x, KW y | ANNOT x, ANNOT y -> String.equal x y
  | (INT _ | IDENT _ | KW _ | ANNOT _), _ -> false
  | _ -> a == b (* constant constructors are immediates *)

let is_kw tok kw = match tok with Lexer.KW k -> String.equal k kw | _ -> false

let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise
    (Error
       ( Printf.sprintf "%s (found %s)" msg (Lexer.token_to_string (peek st)),
         st.toks.Lexer.lines.(st.pos),
         st.toks.Lexer.cols.(st.pos) ))

let expect st tok msg =
  if tok_eq (peek st) tok then advance st else fail st msg

let expect_kw st kw =
  if is_kw (peek st) kw then advance st else fail st (Printf.sprintf "expected %S" kw)

let accept st tok =
  if tok_eq (peek st) tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw =
  if is_kw (peek st) kw then begin
    advance st;
    true
  end
  else false

let ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let int_literal st =
  let neg = accept st Lexer.MINUS in
  match peek st with
  | Lexer.INT n ->
      advance st;
      if neg then -n else n
  | _ -> fail st "expected integer literal"

(* ---------------- expressions ---------------- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let rec loop acc =
    if accept_kw st "or" then
      let op = if accept_kw st "else" then Or_else else Or in
      loop (Binop (op, acc, parse_and st))
    else acc
  in
  loop (parse_and st)

and parse_and st =
  let rec loop acc =
    if accept_kw st "and" then
      let op = if accept_kw st "then" then And_then else And in
      loop (Binop (op, acc, parse_xor st))
    else acc
  in
  loop (parse_xor st)

and parse_xor st =
  let rec loop acc =
    if accept_kw st "xor" then loop (Binop (Bxor, acc, parse_rel st)) else acc
  in
  loop (parse_rel st)

and parse_rel st =
  let lhs = parse_add st in
  let op =
    match peek st with
    | Lexer.EQ -> Some Eq
    | Lexer.NE -> Some Ne
    | Lexer.LT -> Some Lt
    | Lexer.LE -> Some Le
    | Lexer.GT -> Some Gt
    | Lexer.GE -> Some Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      Binop (op, lhs, parse_add st)

and parse_add st =
  let rec loop acc =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        loop (Binop (Add, acc, parse_mul st))
    | Lexer.MINUS ->
        advance st;
        loop (Binop (Sub, acc, parse_mul st))
    | _ -> acc
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop acc =
    match peek st with
    | Lexer.STAR ->
        advance st;
        loop (Binop (Mul, acc, parse_unary st))
    | Lexer.SLASH ->
        advance st;
        loop (Binop (Div, acc, parse_unary st))
    | Lexer.KW "mod" ->
        advance st;
        loop (Binop (Mod, acc, parse_unary st))
    | _ -> acc
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.KW "not" ->
      advance st;
      Unop (Not, parse_unary st)
  | Lexer.MINUS ->
      advance st;
      (* fold negated literals so pretty-printed negatives round-trip *)
      (match parse_unary st with
      | Int_lit n -> Int_lit (-n)
      | e -> Unop (Neg, e))
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.INT n ->
      advance st;
      Int_lit n
  | Lexer.KW "true" ->
      advance st;
      Bool_lit true
  | Lexer.KW "false" ->
      advance st;
      Bool_lit false
  | Lexer.KW "result" ->
      advance st;
      parse_postfix st Result
  | Lexer.IDENT name ->
      advance st;
      if accept st Lexer.TILDE then Old name
      else if tok_eq (peek st) Lexer.LPAREN then begin
        advance st;
        let args = if tok_eq (peek st) Lexer.RPAREN then [] else parse_arg_list st in
        expect st Lexer.RPAREN "expected )";
        parse_postfix st (Call (name, args))
      end
      else Var name
  | Lexer.LPAREN ->
      advance st;
      if is_kw (peek st) "for" then begin
        advance st;
        let q =
          if accept_kw st "all" then Forall
          else if accept_kw st "some" then Exists
          else fail st "expected all or some"
        in
        let v = ident st in
        expect_kw st "in";
        let lo = parse_expr st in
        expect st Lexer.DOTDOT "expected ..";
        let hi = parse_expr st in
        expect st Lexer.ARROW "expected =>";
        let body = parse_expr st in
        expect st Lexer.RPAREN "expected )";
        Quantified (q, v, lo, hi, body)
      end
      else begin
        let first = parse_expr st in
        if tok_eq (peek st) Lexer.COMMA then begin
          let rec elems acc =
            if accept st Lexer.COMMA then elems (parse_expr st :: acc)
            else List.rev acc
          in
          let es = elems [ first ] in
          expect st Lexer.RPAREN "expected )";
          Aggregate es
        end
        else begin
          expect st Lexer.RPAREN "expected )";
          first
        end
      end
  | _ -> fail st "expected expression"

and parse_postfix st acc =
  if tok_eq (peek st) Lexer.LPAREN then begin
    advance st;
    let idx = parse_expr st in
    expect st Lexer.RPAREN "expected ) after index";
    parse_postfix st (Index (acc, idx))
  end
  else acc

and parse_arg_list st =
  let rec loop acc =
    let e = parse_expr st in
    if accept st Lexer.COMMA then loop (e :: acc) else List.rev (e :: acc)
  in
  loop []

(* ---------------- types ---------------- *)

let rec parse_type st =
  match peek st with
  | Lexer.KW "boolean" ->
      advance st;
      Tbool
  | Lexer.KW "integer" ->
      advance st;
      Tint None
  | Lexer.KW "range" ->
      advance st;
      let lo = int_literal st in
      expect st Lexer.DOTDOT "expected ..";
      let hi = int_literal st in
      Tint (Some (lo, hi))
  | Lexer.KW "mod" ->
      advance st;
      let m = int_literal st in
      Tmod m
  | Lexer.KW "array" ->
      advance st;
      expect st Lexer.LPAREN "expected (";
      let lo = int_literal st in
      expect st Lexer.DOTDOT "expected ..";
      let hi = int_literal st in
      expect st Lexer.RPAREN "expected )";
      expect_kw st "of";
      Tarray (lo, hi, parse_type st)
  | Lexer.IDENT n ->
      advance st;
      Tnamed n
  | _ -> fail st "expected type"

(* ---------------- statements ---------------- *)

let parse_invariants st =
  let rec loop acc =
    match peek st with
    | Lexer.ANNOT "invariant" ->
        advance st;
        let e = parse_expr st in
        expect st Lexer.SEMI "expected ; after invariant";
        loop (e :: acc)
    | _ -> List.rev acc
  in
  loop []

let rec parse_stmt st =
  match peek st with
  | Lexer.KW "null" ->
      advance st;
      expect st Lexer.SEMI "expected ;";
      Null
  | Lexer.ANNOT "assert" ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.SEMI "expected ; after assert";
      Assert e
  | Lexer.KW "return" ->
      advance st;
      if accept st Lexer.SEMI then Return None
      else begin
        let e = parse_expr st in
        expect st Lexer.SEMI "expected ;";
        Return (Some e)
      end
  | Lexer.KW "if" ->
      advance st;
      let rec branches acc =
        let g = parse_expr st in
        expect_kw st "then";
        let body = parse_stmts st in
        if accept_kw st "elsif" then branches ((g, body) :: acc)
        else begin
          let els = if accept_kw st "else" then parse_stmts st else [] in
          expect_kw st "end";
          expect_kw st "if";
          expect st Lexer.SEMI "expected ;";
          (List.rev ((g, body) :: acc), els)
        end
      in
      let brs, els = branches [] in
      If (brs, els)
  | Lexer.KW "for" ->
      advance st;
      let v = ident st in
      expect_kw st "in";
      let reverse = accept_kw st "reverse" in
      let lo = parse_expr st in
      expect st Lexer.DOTDOT "expected ..";
      let hi = parse_expr st in
      let invariants = parse_invariants st in
      expect_kw st "loop";
      let body = parse_stmts st in
      expect_kw st "end";
      expect_kw st "loop";
      expect st Lexer.SEMI "expected ;";
      For
        {
          for_var = v;
          for_reverse = reverse;
          for_lo = lo;
          for_hi = hi;
          for_invariants = invariants;
          for_body = body;
        }
  | Lexer.KW "while" ->
      advance st;
      let cond = parse_expr st in
      let invariants = parse_invariants st in
      expect_kw st "loop";
      let body = parse_stmts st in
      expect_kw st "end";
      expect_kw st "loop";
      expect st Lexer.SEMI "expected ;";
      While { while_cond = cond; while_invariants = invariants; while_body = body }
  | Lexer.IDENT name ->
      advance st;
      (* assignment target, procedure call, or indexed assignment *)
      let rec groups acc =
        if tok_eq (peek st) Lexer.LPAREN then begin
          advance st;
          let args = if tok_eq (peek st) Lexer.RPAREN then [] else parse_arg_list st in
          expect st Lexer.RPAREN "expected )";
          groups (args :: acc)
        end
        else List.rev acc
      in
      let gs = groups [] in
      if accept st Lexer.ASSIGN then begin
        let lv =
          List.fold_left
            (fun lv args ->
              match args with
              | [ i ] -> Lindex (lv, i)
              | _ -> fail st "assignment target index must be a single expression")
            (Lvar name) gs
        in
        let e = parse_expr st in
        expect st Lexer.SEMI "expected ;";
        Assign (lv, e)
      end
      else begin
        expect st Lexer.SEMI "expected ; after statement";
        match gs with
        | [] -> Call_stmt (name, [])
        | [ args ] -> Call_stmt (name, args)
        | _ -> fail st "procedure call takes a single argument list"
      end
  | _ -> fail st "expected statement"

and parse_stmts st =
  let stops tok =
    match tok with
    | Lexer.KW ("end" | "elsif" | "else") -> true
    | _ -> false
  in
  let rec loop acc =
    if stops (peek st) then List.rev acc else loop (parse_stmt st :: acc)
  in
  (* drop the "null;" placeholder the pretty-printer emits for empty bodies *)
  match loop [] with [ Null ] -> [] | stmts -> stmts

(* ---------------- declarations ---------------- *)

let parse_subprogram st ~is_function =
  let name = ident st in
  let params =
    if accept st Lexer.LPAREN then begin
      let rec loop acc =
        let pname = ident st in
        expect st Lexer.COLON "expected : in parameter";
        let mode =
          if accept_kw st "in" then
            if accept_kw st "out" then Mode_in_out else Mode_in
          else if accept_kw st "out" then Mode_out
          else Mode_in
        in
        let t = parse_type st in
        let acc = { par_name = pname; par_mode = mode; par_typ = t } :: acc in
        if accept st Lexer.SEMI then loop acc else List.rev acc
      in
      let ps = loop [] in
      expect st Lexer.RPAREN "expected ) after parameters";
      ps
    end
    else []
  in
  let ret = if is_function then (expect_kw st "return"; Some (parse_type st)) else None in
  let pre = ref None and post = ref None in
  let rec annots () =
    match peek st with
    | Lexer.ANNOT "pre" ->
        advance st;
        pre := Some (parse_expr st);
        expect st Lexer.SEMI "expected ; after pre";
        annots ()
    | Lexer.ANNOT "post" ->
        advance st;
        post := Some (parse_expr st);
        expect st Lexer.SEMI "expected ; after post";
        annots ()
    | _ -> ()
  in
  annots ();
  expect_kw st "is";
  let rec locals acc =
    match peek st with
    | Lexer.IDENT lname when tok_eq (peek2 st) Lexer.COLON ->
        advance st;
        advance st;
        let t = parse_type st in
        let init = if accept st Lexer.ASSIGN then Some (parse_expr st) else None in
        expect st Lexer.SEMI "expected ; after local declaration";
        locals ({ v_name = lname; v_typ = t; v_init = init } :: acc)
    | _ -> List.rev acc
  in
  let locals = locals [] in
  expect_kw st "begin";
  let body = parse_stmts st in
  expect_kw st "end";
  let closing = ident st in
  if not (String.equal closing name) then
    fail st (Printf.sprintf "subprogram %S closed by %S" name closing);
  expect st Lexer.SEMI "expected ;";
  {
    sub_name = name;
    sub_params = params;
    sub_return = ret;
    sub_pre = !pre;
    sub_post = !post;
    sub_locals = locals;
    sub_body = body;
  }

let parse_decl st =
  match peek st with
  | Lexer.KW "type" ->
      advance st;
      let name = ident st in
      expect_kw st "is";
      let t = parse_type st in
      expect st Lexer.SEMI "expected ;";
      Dtype (name, t)
  | Lexer.KW "procedure" ->
      advance st;
      Dsub (parse_subprogram st ~is_function:false)
  | Lexer.KW "function" ->
      advance st;
      Dsub (parse_subprogram st ~is_function:true)
  | Lexer.IDENT name ->
      advance st;
      expect st Lexer.COLON "expected : in declaration";
      if accept_kw st "constant" then begin
        let t = parse_type st in
        expect st Lexer.ASSIGN "expected := in constant declaration";
        let e = parse_expr st in
        expect st Lexer.SEMI "expected ;";
        Dconst { k_name = name; k_typ = t; k_value = e }
      end
      else begin
        let t = parse_type st in
        let init = if accept st Lexer.ASSIGN then Some (parse_expr st) else None in
        expect st Lexer.SEMI "expected ;";
        Dvar { v_name = name; v_typ = t; v_init = init }
      end
  | _ -> fail st "expected declaration"

let parse_program st =
  expect_kw st "program";
  let name = ident st in
  expect_kw st "is";
  let rec decls acc =
    if is_kw (peek st) "end" && not (is_kw (peek2 st) "loop") && not (is_kw (peek2 st) "if")
    then List.rev acc
    else decls (parse_decl st :: acc)
  in
  let ds = decls [] in
  expect_kw st "end";
  let closing = ident st in
  if not (String.equal closing name) then
    fail st (Printf.sprintf "program %S closed by %S" name closing);
  expect st Lexer.SEMI "expected ;";
  expect st Lexer.EOF "expected end of input";
  { prog_name = name; prog_decls = ds }

let of_string src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (msg, line, col) -> raise (Error ("lexical error: " ^ msg, line, col))
  in
  let st = { toks; pos = 0 } in
  parse_program st

let expr_of_string src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (msg, line, col) -> raise (Error ("lexical error: " ^ msg, line, col))
  in
  let st = { toks; pos = 0 } in
  let e = parse_expr st in
  expect st Lexer.EOF "expected end of expression";
  e

let stmts_of_string src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (msg, line, col) -> raise (Error ("lexical error: " ^ msg, line, col))
  in
  let st = { toks; pos = 0 } in
  let rec loop acc = if tok_eq (peek st) Lexer.EOF then List.rev acc else loop (parse_stmt st :: acc) in
  loop []
