(* Runtime values for the MiniSpark interpreter.

   Arrays use copy-on-update semantics: a [Varray] is never mutated in
   place, so stores can be snapshotted and compared structurally — the
   definition of semantics preservation in the paper (§5.1) is equality of
   final states, which structural equality implements directly. *)

type t =
  | Vbool of bool
  | Vint of int
  | Vmod of int * int  (** value, modulus; invariant: 0 <= value < modulus *)
  | Varray of int * t array  (** first index, elements *)

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let rec equal a b =
  match (a, b) with
  | Vbool x, Vbool y -> Bool.equal x y
  | Vint x, Vint y -> x = y
  (* moduli are type information, not value identity: a data-representation
     refactoring (word -> bytes) must preserve *values* across retyping *)
  | Vmod (x, _), Vmod (y, _) -> x = y
  | Vmod (x, _), Vint y | Vint x, Vmod (y, _) -> x = y
  | Varray (lo, x), Varray (lo', y) ->
      lo = lo'
      && Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i xi -> if not (equal xi y.(i)) then ok := false) x;
          !ok)
  | (Vbool _ | Vint _ | Vmod _ | Varray _), _ -> false

let rec to_string = function
  | Vbool b -> string_of_bool b
  | Vint n -> string_of_int n
  | Vmod (n, _) -> string_of_int n
  | Varray (_, a) ->
      "(" ^ String.concat ", " (Array.to_list (Array.map to_string a)) ^ ")"

let as_bool = function
  | Vbool b -> b
  | v -> error "expected boolean, got %s" (to_string v)

let as_int = function
  | Vint n | Vmod (n, _) -> n
  | v -> error "expected integer, got %s" (to_string v)

let as_array = function
  | Varray (lo, a) -> (lo, a)
  | v -> error "expected array, got %s" (to_string v)

let wrap m n = Vmod (((n mod m) + m) mod m, m)

(** Array read with bound check. *)
let array_get v i =
  let lo, a = as_array v in
  let off = i - lo in
  if off < 0 || off >= Array.length a then
    error "index %d out of range %d .. %d" i lo (lo + Array.length a - 1);
  a.(off)

(** Copy-on-update array write with bound check. *)
let array_set v i x =
  let lo, a = as_array v in
  let off = i - lo in
  if off < 0 || off >= Array.length a then
    error "index %d out of range %d .. %d" i lo (lo + Array.length a - 1);
  let a' = Array.copy a in
  a'.(off) <- x;
  Varray (lo, a')
