(* Concise construction of MiniSpark ASTs from OCaml — used by the case
   studies and tests to build programs programmatically. *)

open Ast

let i n = Int_lit n
let b v = Bool_lit v
let v x = Var x
let ( @: ) a idx = Index (a, idx)
let idx name e = Index (Var name, e)
let idx2 name e1 e2 = Index (Index (Var name, e1), e2)

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( %% ) a b = Binop (Mod, a, b)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let band a b = Binop (Band, a, b)
let bor a b = Binop (Bor, a, b)
let bxor a b = Binop (Bxor, a, b)
let shl a b = Binop (Shl, a, b)
let shr a b = Binop (Shr, a, b)
let neg a = Unop (Neg, a)
let call name args = Call (name, args)
let old x = Old x
let result = Result
let forall x ~lo ~hi body = Quantified (Forall, x, lo, hi, body)
let exists x ~lo ~hi body = Quantified (Exists, x, lo, hi, body)
let agg_ints ns = Aggregate (List.map i ns)

let lv x = Lvar x

let ( <-- ) lv e = Assign (lv, e)
let set x e = Assign (Lvar x, e)
let seti x ie e = Assign (Lindex (Lvar x, ie), e)
let if_ cond body = If ([ (cond, body) ], [])
let if_chain branches els = If (branches, els)

let for_ var ~lo ~hi ?(invariants = []) body =
  For
    {
      for_var = var;
      for_reverse = false;
      for_lo = lo;
      for_hi = hi;
      for_invariants = invariants;
      for_body = body;
    }

let while_ cond ?(invariants = []) body =
  While { while_cond = cond; while_invariants = invariants; while_body = body }

let pcall name args = Call_stmt (name, args)
let return e = Return (Some e)

let param ?(mode = Mode_in) name typ = { par_name = name; par_mode = mode; par_typ = typ }
let param_out name typ = { par_name = name; par_mode = Mode_out; par_typ = typ }
let local ?init name typ = { v_name = name; v_typ = typ; v_init = init }

let func name ~params ~ret ?pre ?post ?(locals = []) body =
  Dsub
    {
      sub_name = name;
      sub_params = params;
      sub_return = Some ret;
      sub_pre = pre;
      sub_post = post;
      sub_locals = locals;
      sub_body = body;
    }

let proc name ~params ?pre ?post ?(locals = []) body =
  Dsub
    {
      sub_name = name;
      sub_params = params;
      sub_return = None;
      sub_pre = pre;
      sub_post = post;
      sub_locals = locals;
      sub_body = body;
    }

let typedef name typ = Dtype (name, typ)
let const name typ value = Dconst { k_name = name; k_typ = typ; k_value = value }
let const_ints name typ values = const name typ (agg_ints values)
let global ?init name typ = Dvar { v_name = name; v_typ = typ; v_init = init }

let program name decls = { prog_name = name; prog_decls = decls }

(* Common type shorthands *)
let t_int = Tint None
let t_mod m = Tmod m
let t_named n = Tnamed n
