(** Lexer for MiniSpark concrete syntax (Ada-flavoured).

    A comment starting with [--#] is an annotation marker: the marker is
    dropped and lexing continues, so SPARK-style annotations surface as
    ordinary tokens.  A plain [--] comment runs to end of line. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string            (** reserved word, lowercased *)
  | ANNOT of string         (** annotation keyword after [--#]: pre/post/invariant/assert *)
  | LPAREN | RPAREN
  | COMMA | SEMI | COLON
  | ASSIGN                  (** [:=] *)
  | ARROW                   (** [=>] *)
  | DOTDOT                  (** [..] *)
  | TILDE                   (** [~], 'old' in annotations *)
  | PLUS | MINUS | STAR | SLASH
  | EQ | NE | LT | LE | GT | GE
  | EOF

type positioned = { tok : token; line : int; col : int }

(** The tokens of one source, [count] of them, column by column: token
    [i] is [toks.(i)] at [lines.(i)], [cols.(i)].  The arrays may be
    longer than [count].  Word and integer tokens are shared values,
    interned per domain. *)
type tokens = { count : int; toks : token array; lines : int array; cols : int array }

exception Error of string * int * int
(** Message, line, column. *)

val tokenize : string -> tokens
(** @raise Error on lexical errors.  The last token is always [EOF]. *)

val to_list : tokens -> positioned list

val token_to_string : token -> string
