(* The MiniSpark lexer that the table-driven [Minispark.Lexer] replaced,
   kept verbatim as the reference of the program-text identity tests
   (test_text_identity.ml); only its token types are re-exported from
   [Lexer] so that reference and current tokens compare directly.
   Test-only: nothing in lib/ depends on it. *)

open Minispark

(* Hand-written lexer for MiniSpark concrete syntax (Ada-flavoured).

   Annotation markers: a comment starting with [--#] is *not* skipped — the
   marker itself is dropped and lexing continues, so SPARK-style annotations
   ([--# pre ...;], [--# invariant ...;]) surface as ordinary tokens for the
   parser.  A plain [--] comment runs to end of line. *)

type token = Lexer.token =
  | INT of int
  | IDENT of string
  | KW of string            (* reserved word, lowercased *)
  | ANNOT of string         (* annotation keyword after --#: pre/post/... *)
  | LPAREN | RPAREN
  | COMMA | SEMI | COLON
  | ASSIGN                  (* := *)
  | ARROW                   (* => *)
  | DOTDOT                  (* .. *)
  | TILDE                   (* ~  ('old' in annotations) *)
  | PLUS | MINUS | STAR | SLASH
  | EQ | NE | LT | LE | GT | GE
  | EOF

type positioned = Lexer.positioned = { tok : token; line : int; col : int }

exception Error of string * int * int

let keywords =
  [ "program"; "is"; "type"; "constant"; "range"; "mod"; "array"; "of";
    "boolean"; "integer"; "procedure"; "function"; "return"; "in"; "out";
    "begin"; "end"; "null"; "if"; "then"; "elsif"; "else"; "for"; "while";
    "loop"; "reverse"; "and"; "or"; "xor"; "not"; "true"; "false"; "result";
    "all"; "some" ]

let annot_keywords = [ "pre"; "post"; "invariant"; "assert" ]

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  let emit pos tok = toks := { tok; line = !line; col = pos - !bol + 1 } :: !toks in
  let error pos msg = raise (Error (msg, !line, pos - !bol + 1)) in
  let rec skip_line i = if i < n && src.[i] <> '\n' then skip_line (i + 1) else i in
  let rec go i =
    if i >= n then emit i EOF
    else
      match src.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
          incr line;
          bol := i + 1;
          go (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
          if i + 2 < n && src.[i + 2] = '#' then begin
            (* annotation marker: check whether an annotation keyword follows *)
            let j = ref (i + 3) in
            while !j < n && (src.[!j] = ' ' || src.[!j] = '\t') do incr j done;
            let start = !j in
            while !j < n && is_alnum src.[!j] do incr j done;
            let word = String.lowercase_ascii (String.sub src start (!j - start)) in
            if List.mem word annot_keywords then begin
              emit start (ANNOT word);
              go !j
            end
            else go (i + 3) (* continuation line: marker is transparent *)
          end
          else go (skip_line (i + 2))
      | '(' -> emit i LPAREN; go (i + 1)
      | ')' -> emit i RPAREN; go (i + 1)
      | ',' -> emit i COMMA; go (i + 1)
      | ';' -> emit i SEMI; go (i + 1)
      | '~' -> emit i TILDE; go (i + 1)
      | '+' -> emit i PLUS; go (i + 1)
      | '*' -> emit i STAR; go (i + 1)
      | ':' when i + 1 < n && src.[i + 1] = '=' -> emit i ASSIGN; go (i + 2)
      | ':' -> emit i COLON; go (i + 1)
      | '=' when i + 1 < n && src.[i + 1] = '>' -> emit i ARROW; go (i + 2)
      | '=' -> emit i EQ; go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '=' -> emit i NE; go (i + 2)
      | '/' -> emit i SLASH; go (i + 1)
      | '<' when i + 1 < n && src.[i + 1] = '=' -> emit i LE; go (i + 2)
      | '<' -> emit i LT; go (i + 1)
      | '>' when i + 1 < n && src.[i + 1] = '=' -> emit i GE; go (i + 2)
      | '>' -> emit i GT; go (i + 1)
      | '-' -> emit i MINUS; go (i + 1)
      | '.' when i + 1 < n && src.[i + 1] = '.' -> emit i DOTDOT; go (i + 2)
      | c when is_digit c ->
          let j = ref i in
          while !j < n && is_digit src.[!j] do incr j done;
          let dec = int_of_string (String.sub src i (!j - i)) in
          if !j < n && src.[!j] = '#' then begin
            (* Ada based literal, e.g. 16#c66363a5# *)
            let base = dec in
            if base < 2 || base > 16 then error i "unsupported literal base";
            let start = !j + 1 in
            let k = ref start in
            let value = ref 0 in
            let digit c =
              if is_digit c then Char.code c - Char.code '0'
              else if c >= 'a' && c <= 'f' then 10 + Char.code c - Char.code 'a'
              else if c >= 'A' && c <= 'F' then 10 + Char.code c - Char.code 'A'
              else -1
            in
            while !k < n && digit src.[!k] >= 0 do
              value := (!value * base) + digit src.[!k];
              incr k
            done;
            if !k = start then error i "empty based literal";
            if !k >= n || src.[!k] <> '#' then error i "unterminated based literal";
            emit i (INT !value);
            go (!k + 1)
          end
          else begin
            emit i (INT dec);
            go !j
          end
      | c when is_alpha c ->
          let j = ref i in
          while !j < n && is_alnum src.[!j] do incr j done;
          let word = String.lowercase_ascii (String.sub src i (!j - i)) in
          emit i (if List.mem word keywords then KW word else IDENT word);
          go !j
      | c -> error i (Printf.sprintf "unexpected character %C" c)
  in
  go 0;
  List.rev !toks

let token_to_string = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | KW s -> s
  | ANNOT s -> "--# " ^ s
  | LPAREN -> "(" | RPAREN -> ")"
  | COMMA -> "," | SEMI -> ";" | COLON -> ":"
  | ASSIGN -> ":=" | ARROW -> "=>" | DOTDOT -> ".."
  | TILDE -> "~"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | EQ -> "=" | NE -> "/=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | EOF -> "<eof>"
