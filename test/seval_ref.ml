(* The tree-walking specification evaluator that [Specl.Seval] replaced,
   kept verbatim as the reference of the evaluator identity tests
   (test_specl.ml).  Values, errors, environments and the value helpers
   are [Specl.Seval]'s own, so the two evaluators' results compare
   directly.  Test-only: nothing in lib/ depends on it. *)

open Specl.Sast
open Specl.Seval

(* Applications of a definition to scalar arguments (0-ary tables and
   constants included) are memoized per domain and per physical theory:
   definitions are pure and closed — a body sees only its parameters and
   the theory — so the value is a function of (theory, name, arguments).
   A hit skips the body's fuel, as Interp's const-function memo does;
   a body that raises (fuel exhaustion included) is never stored.
   Theories are told apart by physical identity through a short list of
   recently seen ones, each given a fresh id, so a dropped theory's
   entries can never be confused with a newer theory's and simply age
   out of the bounded table. *)
let memo_cap = 65_536
let theories_cap = 16

type memo = {
  mutable theories : (theory * int) list;  (* newest first *)
  mutable next_id : int;
  apps : (int * string * value list, value) Memo.t;
}

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { theories = []; next_id = 0; apps = Memo.create memo_cap })

let theory_id m th =
  match List.assq_opt th m.theories with
  | Some id -> id
  | None ->
      let id = m.next_id in
      m.next_id <- id + 1;
      m.theories <-
        (th, id) :: List.filteri (fun i _ -> i < theories_cap - 1) m.theories;
      id

let memo_stats () = Memo.stats (Domain.DLS.get memo_key).apps

let scalar = function Vint _ | Vbool _ -> true | Varr _ | Vtup _ -> false

let prim_eval p args =
  match (p, args) with
  | Padd, [ a; b ] -> Vint (as_int a + as_int b)
  | Psub, [ a; b ] -> Vint (as_int a - as_int b)
  | Pmul, [ a; b ] -> Vint (as_int a * as_int b)
  | Pdiv, [ a; b ] ->
      let d = as_int b in
      if d = 0 then error "division by zero" else Vint (as_int a / d)
  | Pmod, [ a; b ] ->
      let d = as_int b in
      if d = 0 then error "mod by zero"
      else Vint (((as_int a mod d) + abs d) mod abs d)
  | Pneg, [ a ] -> Vint (-as_int a)
  | Peq, [ a; b ] -> Vbool (equal a b)
  | Pne, [ a; b ] -> Vbool (not (equal a b))
  | Plt, [ a; b ] -> Vbool (as_int a < as_int b)
  | Ple, [ a; b ] -> Vbool (as_int a <= as_int b)
  | Pgt, [ a; b ] -> Vbool (as_int a > as_int b)
  | Pge, [ a; b ] -> Vbool (as_int a >= as_int b)
  | Pand, [ a; b ] -> Vbool (as_bool a && as_bool b)
  | Por, [ a; b ] -> Vbool (as_bool a || as_bool b)
  | Pnot, [ a ] -> Vbool (not (as_bool a))
  | Pband, [ a; b ] -> Vint (as_int a land as_int b)
  | Pbor, [ a; b ] -> Vint (as_int a lor as_int b)
  | Pbxor, [ a; b ] -> Vint (as_int a lxor as_int b)
  | Pshl, [ a; b ] ->
      let k = as_int b in
      if k < 0 || k > 62 then error "shift out of range" else Vint (as_int a lsl k)
  | Pshr, [ a; b ] ->
      let k = as_int b in
      if k < 0 || k > 62 then error "shift out of range" else Vint (as_int a lsr k)
  | _ -> error "bad primitive application"

let rec eval env bindings e =
  env.fuel <- env.fuel - 1;
  if env.fuel <= 0 then error "specification evaluation out of fuel";
  match e with
  | Sbool_lit b -> Vbool b
  | Sint_lit n -> Vint n
  | Svar x -> (
      match List.assoc_opt x bindings with
      | Some v -> v
      | None -> (
          (* 0-ary definitions (tables, named constants) *)
          match find_def env.theory x with
          | Some d when d.sd_params = [] -> apply_def env d []
          | _ -> error "unbound specification variable %s" x))
  | Sif (c, a, b) -> if as_bool (eval env bindings c) then eval env bindings a else eval env bindings b
  | Slet (x, a, b) ->
      let va = eval env bindings a in
      eval env ((x, va) :: bindings) b
  | Sprim (p, args) -> prim_eval p (List.map (eval env bindings) args)
  | Sapp (name, args) -> (
      match find_def env.theory name with
      | None -> error "unknown specification function %s" name
      | Some d ->
          if List.length d.sd_params <> List.length args then
            error "arity mismatch applying %s" name;
          apply_def env d (List.map (eval env bindings) args))
  | Sarray_lit (lo, es) ->
      Varr (lo, Array.of_list (List.map (eval env bindings) es))
  | Sindex (a, i) -> (
      match eval env bindings a with
      | Varr (lo, data) ->
          let k = as_int (eval env bindings i) - lo in
          if k < 0 || k >= Array.length data then error "spec index out of range"
          else data.(k)
      | v -> error "indexing non-array %s" (to_string v))
  | Supdate (a, i, v) -> (
      match eval env bindings a with
      | Varr (lo, data) ->
          let k = as_int (eval env bindings i) - lo in
          if k < 0 || k >= Array.length data then error "spec update out of range"
          else
            let data' = Array.copy data in
            data'.(k) <- eval env bindings v;
            Varr (lo, data')
      | v -> error "updating non-array %s" (to_string v))
  | Stuple_lit es -> Vtup (List.map (eval env bindings) es)
  | Sproj (k, e) -> (
      match eval env bindings e with
      | Vtup vs when k < List.length vs -> List.nth vs k
      | v -> error "projection %d from %s" k (to_string v))
  | Stabulate (lo, hi, x, body) ->
      Varr (lo, Array.init (hi - lo + 1) (fun k ->
                eval env ((x, Vint (lo + k)) :: bindings) body))
  | Sfold f ->
      let lo = as_int (eval env bindings f.f_lo) in
      let hi = as_int (eval env bindings f.f_hi) in
      let rec go i acc =
        if i > hi then acc
        else
          let bindings' = (f.f_var, Vint i) :: (f.f_acc, acc) :: bindings in
          go (i + 1) (eval env bindings' f.f_body)
      in
      go lo (eval env bindings f.f_init)

(* [argv] has the definition's arity *)
and apply_def env d argv =
  let body () =
    eval env (List.map2 (fun (p, _) v -> (p, v)) d.sd_params argv) d.sd_body
  in
  if List.for_all scalar argv then
    let m = Domain.DLS.get memo_key in
    Memo.find m.apps (theory_id m env.theory, d.sd_name, argv) body
  else body ()

(** Apply a named definition to values. *)
let apply env name argv =
  let d = find_def_exn env.theory name in
  if List.length d.sd_params <> List.length argv then
    error "arity mismatch applying %s" name;
  apply_def env d argv

