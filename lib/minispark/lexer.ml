(* Hand-written lexer for MiniSpark concrete syntax (Ada-flavoured).

   Annotation markers: a comment starting with [--#] is *not* skipped — the
   marker itself is dropped and lexing continues, so SPARK-style annotations
   ([--# pre ...;], [--# invariant ...;]) surface as ordinary tokens for the
   parser.  A plain [--] comment runs to end of line.

   The lexer runs on every parse of a served job's source, so it keeps
   nothing per token on the heap: positions go into unboxed [int array]s,
   and the token array holds only shared values — constant constructors,
   and word and integer tokens interned in per-domain tables (a worker
   re-lexing the same program allocates no token twice).  Keywords are
   recognised by a string match (no list scan, no polymorphic compare),
   and a word is lowercased only when it holds an uppercase letter. *)

type token =
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

type positioned = { tok : token; line : int; col : int }

type tokens = { count : int; toks : token array; lines : int array; cols : int array }

exception Error of string * int * int

(* a lowercased word: reserved word or identifier *)
let word_token w =
  match w with
  | "program" | "is" | "type" | "constant" | "range" | "mod" | "array" | "of"
  | "boolean" | "integer" | "procedure" | "function" | "return" | "in" | "out"
  | "begin" | "end" | "null" | "if" | "then" | "elsif" | "else" | "for"
  | "while" | "loop" | "reverse" | "and" | "or" | "xor" | "not" | "true"
  | "false" | "result" | "all" | "some" ->
      KW w
  | _ -> IDENT w

let annot_token = function
  | "pre" -> Some (ANNOT "pre")
  | "post" -> Some (ANNOT "post")
  | "invariant" -> Some (ANNOT "invariant")
  | "assert" -> Some (ANNOT "assert")
  | _ -> None

(* interned word and integer tokens; bounded, since a worker lexes every
   program it is sent *)
type interned = { words : (string, token) Memo.t; ints : (int, token) Memo.t }

let interned_key =
  Domain.DLS.new_key (fun () -> { words = Memo.create 16384; ints = Memo.create 16384 })

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec has_upper src i j =
  i < j && (match String.unsafe_get src i with 'A' .. 'Z' -> true | _ -> has_upper src (i + 1) j)

let tokenize src =
  let n = String.length src in
  let { words; ints } = Domain.DLS.get interned_key in
  (* most tokens span three bytes or more, with their spacing *)
  let cap = ref (max 16 (n / 3)) in
  let toks = ref (Array.make !cap EOF) in
  let lines = ref (Array.make !cap 0) and cols = ref (Array.make !cap 0) in
  let count = ref 0 in
  let line = ref 1 and bol = ref 0 in
  let grow a fill =
    let bigger = Array.make (2 * !cap) fill in
    Array.blit a 0 bigger 0 !count;
    bigger
  in
  let emit pos tok =
    if !count = !cap then begin
      toks := grow !toks EOF;
      lines := grow !lines 0;
      cols := grow !cols 0;
      cap := 2 * !cap
    end;
    Array.unsafe_set !toks !count tok;
    Array.unsafe_set !lines !count !line;
    Array.unsafe_set !cols !count (pos - !bol + 1);
    incr count
  in
  let int_token v = Memo.find ints v (fun () -> INT v) in
  let error pos msg = raise (Error (msg, !line, pos - !bol + 1)) in
  (* [src.[i, j)] lowercased, copied once *)
  let word i j =
    let w = String.sub src i (j - i) in
    if has_upper src i j then String.lowercase_ascii w else w
  in
  (* a run of decimal digits; a value past [max_int] is an error at the
     literal (no digit can overflow a value below [max_int / 16]) *)
  let decimal i j =
    let v = ref 0 in
    for k = i to j - 1 do
      let d = Char.code (String.unsafe_get src k) - Char.code '0' in
      if !v > max_int lsr 4 && !v > (max_int - d) / 10 then
        error i "integer literal out of range";
      v := (!v * 10) + d
    done;
    !v
  in
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
            match annot_token (word start !j) with
            | Some tok ->
                emit start tok;
                go !j
            | None -> go (i + 3) (* continuation line: marker is transparent *)
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
          let dec = decimal i !j in
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
              let d = digit src.[!k] in
              if d >= base then
                error i (Printf.sprintf "digit %C out of range for base %d" src.[!k] base);
              if !value > max_int lsr 4 && !value > (max_int - d) / base then
                error i "based literal out of range";
              value := (!value * base) + d;
              incr k
            done;
            if !k = start then error i "empty based literal";
            if !k >= n || src.[!k] <> '#' then error i "unterminated based literal";
            emit i (int_token !value);
            go (!k + 1)
          end
          else begin
            emit i (int_token dec);
            go !j
          end
      | c when is_alpha c ->
          let j = ref i in
          while !j < n && is_alnum src.[!j] do incr j done;
          let w = word i !j in
          emit i (Memo.find words w (fun () -> word_token w));
          go !j
      | c -> error i (Printf.sprintf "unexpected character %C" c)
  in
  go 0;
  { count = !count; toks = !toks; lines = !lines; cols = !cols }

let to_list t =
  List.init t.count (fun i -> { tok = t.toks.(i); line = t.lines.(i); col = t.cols.(i) })

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
