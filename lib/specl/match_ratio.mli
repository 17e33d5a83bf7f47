(** Specification-structure match ratio (Fig. 2(f)): the percentage of key
    structural elements — data types, operators, functions and tables — of
    the original specification with direct counterparts in the extracted
    one.  The paper evaluated this by inspection; here the inspection is
    mechanised over normalised names plus a per-case-study synonym
    dictionary. *)

type element =
  | El_type of string
  | El_function of string
  | El_table of string
  | El_operator of Sast.prim

val element_name : element -> string

val elements : Sast.theory -> element list
(** The key structural elements of a theory (ambient comparison/logical
    operators excluded). *)

val normalise : string -> string
(** Case- and underscore-insensitive name normalisation. *)

type result = {
  mr_total : int;             (** elements of the original specification *)
  mr_matched : int;
  mr_ratio : float;
  mr_unmatched : element list;
}

val compare :
  ?synonyms:(string * string) list ->
  original:Sast.theory -> extracted:Sast.theory -> unit -> result

val empty : result
(** Degenerate result (0 elements) for pipeline stages that never ran. *)

val pp_result : result Fmt.t
