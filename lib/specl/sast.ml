(* Abstract syntax of the specification language — the stand-in for PVS in
   the Echo instantiation.  A small, pure, first-order functional language:
   rich enough for FIPS-197 (finite modular types, fixed-size arrays,
   bounded folds, recursion with fuel), poor enough to be evaluable and
   mechanically comparable. *)

type styp =
  | Sbool
  | Sint
  | Smod of int                      (** finite modular type, e.g. byte = mod 256 *)
  | Sarray of int * int * styp       (** fixed index range *)
  | Stuple of styp list
  | Snamed of string

type prim =
  | Padd | Psub | Pmul | Pdiv | Pmod
  | Pneg
  | Peq | Pne | Plt | Ple | Pgt | Pge
  | Pand | Por | Pnot                (** logical *)
  | Pband | Pbor | Pbxor             (** bitwise on naturals *)
  | Pshl | Pshr

type sexpr =
  | Sbool_lit of bool
  | Sint_lit of int
  | Svar of string
  | Sif of sexpr * sexpr * sexpr
  | Slet of string * sexpr * sexpr
  | Sprim of prim * sexpr list
  | Sapp of string * sexpr list      (** call of a defined function *)
  | Sarray_lit of int * sexpr list   (** first index, elements *)
  | Sindex of sexpr * sexpr
  | Supdate of sexpr * sexpr * sexpr
  | Stuple_lit of sexpr list
  | Sproj of int * sexpr
  | Sfold of fold
      (** [fold i = lo .. hi with acc := init do body]: iterate [i],
          rebinding [acc] to [body] each step; yields the final [acc]. *)
  | Stabulate of int * int * string * sexpr
      (** [Stabulate (lo, hi, x, body)]: the array whose entry at index
          [i] in [lo..hi] is [body[x := i]]. *)

and fold = {
  f_var : string;
  f_lo : sexpr;
  f_hi : sexpr;
  f_acc : string;
  f_init : sexpr;
  f_body : sexpr;
}

type def_kind =
  | Dfun    (** ordinary defined function *)
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

let find_def theory name =
  List.find_opt (fun d -> String.equal d.sd_name name) theory.th_defs

let find_def_exn theory name =
  match find_def theory name with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Sast.find_def_exn: no definition %S" name)

let rec resolve_typ theory t =
  match t with
  | Snamed n -> (
      match List.assoc_opt n theory.th_types with
      | Some t -> resolve_typ theory t
      | None -> invalid_arg (Printf.sprintf "Sast.resolve_typ: unknown type %S" n))
  | Sarray (lo, hi, elt) -> Sarray (lo, hi, resolve_typ theory elt)
  | Stuple ts -> Stuple (List.map (resolve_typ theory) ts)
  | Sbool | Sint | Smod _ -> t

(* primitive operators used anywhere in a definition — a structural element
   for the match-ratio metric *)
let prims_of_def d =
  let acc = ref [] in
  let rec go = function
    | Sbool_lit _ | Sint_lit _ | Svar _ -> ()
    | Sif (a, b, c) -> go a; go b; go c
    | Slet (_, a, b) -> go a; go b
    | Sprim (p, args) ->
        acc := p :: !acc;
        List.iter go args
    | Sapp (_, args) -> List.iter go args
    | Sarray_lit (_, es) | Stuple_lit es -> List.iter go es
    | Sindex (a, b) -> go a; go b
    | Supdate (a, b, c) -> go a; go b; go c
    | Sproj (_, a) -> go a
    | Sfold f -> go f.f_lo; go f.f_hi; go f.f_init; go f.f_body
    | Stabulate (_, _, _, body) -> go body
  in
  go d.sd_body;
  List.sort_uniq compare !acc
