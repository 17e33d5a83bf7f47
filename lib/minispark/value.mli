(** Runtime values of the MiniSpark interpreter.

    Arrays use copy-on-update semantics: a [Varray] is never mutated in
    place, so stores can be snapshotted and compared structurally — the
    paper's definition of semantics preservation (§5.1) is equality of
    final states. *)

type t =
  | Vbool of bool
  | Vint of int
  | Vmod of int * int  (** value, modulus; invariant: [0 <= value < modulus] *)
  | Varray of int * t array  (** first index, elements *)

exception Runtime_error of string

val error : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val equal : t -> t -> bool
(** Structural value equality.  Moduli are type information, not value
    identity: [Vmod (5, 256)] equals [Vmod (5, 2{^32})] — a data
    representation refactoring preserves values across retyping. *)

val to_string : t -> string

val as_bool : t -> bool
(** @raise Runtime_error if not a boolean. *)

val as_int : t -> int
(** The integer behind [Vint] or [Vmod].
    @raise Runtime_error otherwise. *)

val as_array : t -> int * t array
(** First index and elements.
    @raise Runtime_error if not an array. *)

val wrap : int -> int -> t
(** [wrap m n] is [n] reduced into [0, m) as a [Vmod]. *)

val array_get : t -> int -> t
(** Array read with bound check.
    @raise Runtime_error when out of range. *)

val array_set : t -> int -> t -> t
(** Copy-on-update array write with bound check.
    @raise Runtime_error when out of range. *)
