(** Abstract syntax of the specification language — the stand-in for PVS
    in the Echo instantiation: a small, pure, first-order functional
    language, rich enough for FIPS-197, poor enough to be evaluable and
    mechanically comparable. *)

type styp =
  | Sbool
  | Sint
  | Smod of int                      (** finite modular type *)
  | Sarray of int * int * styp       (** fixed index range *)
  | Stuple of styp list
  | Snamed of string

type prim =
  | Padd | Psub | Pmul | Pdiv | Pmod
  | Pneg
  | Peq | Pne | Plt | Ple | Pgt | Pge
  | Pand | Por | Pnot
  | Pband | Pbor | Pbxor
  | Pshl | Pshr

type sexpr =
  | Sbool_lit of bool
  | Sint_lit of int
  | Svar of string
  | Sif of sexpr * sexpr * sexpr
  | Slet of string * sexpr * sexpr
  | Sprim of prim * sexpr list
  | Sapp of string * sexpr list
  | Sarray_lit of int * sexpr list   (** first index, elements *)
  | Sindex of sexpr * sexpr
  | Supdate of sexpr * sexpr * sexpr
  | Stuple_lit of sexpr list
  | Sproj of int * sexpr
  | Sfold of fold
  | Stabulate of int * int * string * sexpr
      (** the array whose entry at each index of the range is the body *)

and fold = {
  f_var : string;
  f_lo : sexpr;
  f_hi : sexpr;
  f_acc : string;
  f_init : sexpr;
  f_body : sexpr;
}

type def_kind =
  | Dfun
  | Dtable  (** constant table (0-ary, array-valued) *)

type sdef = {
  sd_name : string;
  sd_kind : def_kind;
  sd_params : (string * styp) list;
  sd_ret : styp;
  sd_body : sexpr;
}

type theory = {
  th_name : string;
  th_types : (string * styp) list;
  th_defs : sdef list;
}

val find_def : theory -> string -> sdef option
val find_def_exn : theory -> string -> sdef
val resolve_typ : theory -> styp -> styp

val prims_of_def : sdef -> prim list
(** Primitive operators used anywhere in a definition — structural
    elements for the match-ratio metric. *)
