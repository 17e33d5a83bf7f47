(** Concise construction of MiniSpark ASTs from OCaml — the DSL the case
    studies and tests build programs with.  Note the arithmetic and
    comparison operators shadow Stdlib's inside [Builder.( ... )] scopes. *)

open Ast

(** {1 Expressions} *)

val i : int -> expr
val b : bool -> expr
val v : ident -> expr

val ( @: ) : expr -> expr -> expr
(** Indexing: [a @: i] is [a (i)]. *)

val idx : ident -> expr -> expr
val idx2 : ident -> expr -> expr -> expr

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( %% ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr
val ( <> ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( <= ) : expr -> expr -> expr
val ( > ) : expr -> expr -> expr
val ( >= ) : expr -> expr -> expr
val ( && ) : expr -> expr -> expr
val ( || ) : expr -> expr -> expr
val band : expr -> expr -> expr
val bor : expr -> expr -> expr
val bxor : expr -> expr -> expr
val shl : expr -> expr -> expr
val shr : expr -> expr -> expr
val neg : expr -> expr
val call : ident -> expr list -> expr
val old : ident -> expr
val result : expr
val forall : ident -> lo:expr -> hi:expr -> expr -> expr
val exists : ident -> lo:expr -> hi:expr -> expr -> expr

(** {1 Statements} *)

val lv : ident -> lvalue
val ( <-- ) : lvalue -> expr -> stmt
val set : ident -> expr -> stmt
val seti : ident -> expr -> expr -> stmt
val if_ : expr -> stmt list -> stmt
val if_chain : (expr * stmt list) list -> stmt list -> stmt
val for_ : ident -> lo:expr -> hi:expr -> ?invariants:expr list -> stmt list -> stmt
val while_ : expr -> ?invariants:expr list -> stmt list -> stmt
val pcall : ident -> expr list -> stmt
val return : expr -> stmt

(** {1 Declarations} *)

val param : ?mode:param_mode -> ident -> typ -> param
val param_out : ident -> typ -> param
val local : ?init:expr -> ident -> typ -> var_decl

val func :
  ident -> params:param list -> ret:typ -> ?pre:expr -> ?post:expr ->
  ?locals:var_decl list -> stmt list -> decl

val proc :
  ident -> params:param list -> ?pre:expr -> ?post:expr ->
  ?locals:var_decl list -> stmt list -> decl

val typedef : ident -> typ -> decl
val const : ident -> typ -> expr -> decl
val const_ints : ident -> typ -> int list -> decl
val global : ?init:expr -> ident -> typ -> decl
val program : ident -> decl list -> program

(** {1 Type shorthands} *)

val t_int : typ
val t_mod : int -> typ
val t_named : ident -> typ
