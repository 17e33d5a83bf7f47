(* Big-step interpreter for MiniSpark, compiled to OCaml closures.

   Annotations ([Assert], loop invariants, pre/post) are *not* executed:
   they are comments to Ada, and ignoring them here guarantees that an
   annotated program and its bare version have identical dynamic semantics —
   the property the refactoring equivalence checks rely on.

   Procedure calls use SPARK copy-in/copy-out parameter passing; arrays are
   values (copy-on-update), so there is no aliasing at runtime either.

   Each subprogram is compiled once, on its first call, into closures over
   [rt] and a frame.  Compilation resolves every name to a frame slot
   (parameters, locals, loop and quantifier variables) or a global slot,
   every callee to its compiled code (looked up lazily at the call, so
   recursion is safe), and every declared type to a ready coercion and
   default value.  Anything that fails at runtime — an unbound name, an
   unknown callee, an unresolvable type — compiles to a closure that
   raises the same error when execution reaches it.  Operands are
   evaluated in the tree-walker's order: binary operators right operand
   first, argument lists and aggregates left to right.

   A function with scalar [in] parameters that reads no mutable global
   has its results memoized in one table per domain, keyed by its
   behaviour (its name and the content digest of everything a call can
   reach) and the argument values, so the many program versions of a
   refactoring script share each result ([fn_memos]). *)

open Ast

exception Stuck of string
(** Raised when execution cannot proceed (runtime check failure such as an
    out-of-range index or division by zero). *)

exception Out_of_fuel
(** The step budget ran out.  A distinct outcome from {!Stuck}: a
    differential oracle treats it as (suspected) divergence introduced by a
    rewrite, not as a runtime fault of the program under test. *)

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

(* Distinguished values, compared by [==] only and never seen outside this
   module: a statement that completes normally yields [fallthrough], a
   [return;] yields [ret_none], and a global slot whose initialiser has
   not run yet holds [unset]. *)
let fallthrough = Value.Vint (Sys.opaque_identity 0)
let ret_none = Value.Vint (Sys.opaque_identity 0)
let unset = Value.Vint (Sys.opaque_identity 0)

(* ---------------- types: coercions and default values ---------------- *)

(* Small integers and bytes are shared, not allocated: values are
   immutable, and byte arithmetic dominates AES.  Each table fits one
   minor-heap block; a 1024-entry table, allocated on the major heap
   while the program starts, added ~3 ms to every process start. *)
let small_ints = Array.init 256 (fun n -> Value.Vint n)
let bytes = Array.init 256 (fun n -> Value.Vmod (n, 256))
let vint n = if n >= 0 && n < 256 then Array.unsafe_get small_ints n else Value.Vint n

(* [Value.wrap m n] *)
let wrap m n =
  let r = if n >= 0 && n < m then n else ((n mod m) + m) mod m in
  if m = 256 then Array.unsafe_get bytes r else Value.Vmod (r, m)

(* A coercion to a declared type: wraps plain ints into modular values,
   fixes array bounds of aggregate-produced arrays, recursively.  A value
   already of the type comes back physically unchanged. *)
let rec coercion env t : Value.t -> Value.t =
  match Typecheck.resolve env t with
  | exception e -> fun _ -> raise e
  | Tmod m -> (
      function
      | Value.Vmod (n, m') as v when m' = m && n >= 0 && n < m -> v
      | Value.Vint n | Value.Vmod (n, _) -> wrap m n
      | v -> v)
  | Tint _ -> ( function Value.Vmod (n, _) -> vint n | v -> v)
  | Tarray (lo, hi, elt) -> (
      let ce = coercion env elt in
      let len = hi - lo + 1 in
      function
      | Value.Varray (lo', data) as v ->
          if Array.length data <> len then
            stuck "array value of length %d where %d expected" (Array.length data) len;
          (* copy from the first element the coercion changes, if any *)
          let rec scan i =
            if i = len then if lo' = lo then v else Value.Varray (lo, data)
            else
              let x = ce data.(i) in
              if x == data.(i) then scan (i + 1)
              else
                let data' = Array.copy data in
                data'.(i) <- x;
                for j = i + 1 to len - 1 do
                  data'.(j) <- ce data.(j)
                done;
                Value.Varray (lo, data')
          in
          scan 0
      | v -> v)
  | Tbool | Tnamed _ -> fun v -> v

let coerce = coercion

(* The zero/default value of a type (range types default to their lower
   bound), computed once and shared: values are immutable. *)
let rec default_of env t : unit -> Value.t =
  let ready v () = v in
  match Typecheck.resolve env t with
  | exception e -> fun () -> raise e
  | Tbool -> ready (Value.Vbool false)
  | Tint (Some (lo, _)) -> ready (Value.Vint lo)
  | Tint None -> ready (Value.Vint 0)
  | Tmod m -> ready (Value.Vmod (0, m))
  | Tarray (lo, hi, elt) -> (
      let d = default_of env elt in
      match Array.init (hi - lo + 1) (fun _ -> d ()) with
      | exception e -> fun () -> raise e
      | data -> ready (Value.Varray (lo, data)))
  | Tnamed _ -> fun () -> assert false

let default_value env t = default_of env t ()

(* ---------------- operators ---------------- *)

let wrap_like a b r =
  match (a, b) with
  | Value.Vmod (_, m), _ | _, Value.Vmod (_, m) -> wrap m r
  | _ -> vint r

(* The tree-walker's integer operator: both operands converted (in its
   order, so a non-integer operand raises the same error), the result in
   the modulus of the first modular operand.  The operators below take it
   for anything but two modular or two plain integer operands. *)
let int_op f a b =
  let x = Value.as_int a and y = Value.as_int b in
  wrap_like a b (f x y)

let arith op : Value.t -> Value.t -> Value.t =
  match op with
  | Add -> (
      fun a b ->
        match (a, b) with
        | Value.Vmod (x, m), Value.Vmod (y, _) -> wrap m (x + y)
        | Value.Vint x, Value.Vint y -> vint (x + y)
        | _ -> int_op ( + ) a b)
  | Sub -> (
      fun a b ->
        match (a, b) with
        | Value.Vmod (x, m), Value.Vmod (y, _) -> wrap m (x - y)
        | Value.Vint x, Value.Vint y -> vint (x - y)
        | _ -> int_op ( - ) a b)
  | Mul -> (
      fun a b ->
        match (a, b) with
        | Value.Vmod (x, m), Value.Vmod (y, _) -> wrap m (x * y)
        | Value.Vint x, Value.Vint y -> vint (x * y)
        | _ -> int_op ( * ) a b)
  | Div ->
      int_op (fun x y ->
          if y = 0 then stuck "division by zero";
          x / y)
  | Mod ->
      int_op (fun x y ->
          if y = 0 then stuck "mod by zero";
          ((x mod y) + abs y) mod abs y)
  | _ -> assert false

let bitwise op : Value.t -> Value.t -> Value.t =
  match op with
  | Band -> (
      fun a b ->
        match (a, b) with
        | Value.Vmod (x, m), Value.Vmod (y, _) -> wrap m (x land y)
        | _ -> int_op ( land ) a b)
  | Bor -> (
      fun a b ->
        match (a, b) with
        | Value.Vmod (x, m), Value.Vmod (y, _) -> wrap m (x lor y)
        | _ -> int_op ( lor ) a b)
  | Bxor -> (
      fun a b ->
        match (a, b) with
        | Value.Vmod (x, m), Value.Vmod (y, _) -> wrap m (x lxor y)
        | _ -> int_op ( lxor ) a b)
  | _ -> assert false

let shift op : Value.t -> Value.t -> Value.t =
  let left = match op with Shl -> true | Shr -> false | _ -> assert false in
  fun a b ->
    let x = Value.as_int a and k = Value.as_int b in
    if k < 0 || k > 62 then stuck "shift amount %d out of range" k;
    let r = if left then x lsl k else x lsr k in
    match a with Value.Vmod (_, m) -> wrap m r | _ -> vint r

let vtrue = Value.Vbool true
let vfalse = Value.Vbool false
let vbool b = if b then vtrue else vfalse

let compare_values op : Value.t -> Value.t -> Value.t =
  match op with
  | Eq -> fun a b -> vbool (Value.equal a b)
  | Ne -> fun a b -> vbool (not (Value.equal a b))
  | Lt -> (
      fun a b ->
        match (a, b) with
        | (Value.Vint x | Value.Vmod (x, _)), (Value.Vint y | Value.Vmod (y, _)) -> vbool (x < y)
        | _ -> vbool (Value.as_int a < Value.as_int b))
  | Le -> (
      fun a b ->
        match (a, b) with
        | (Value.Vint x | Value.Vmod (x, _)), (Value.Vint y | Value.Vmod (y, _)) -> vbool (x <= y)
        | _ -> vbool (Value.as_int a <= Value.as_int b))
  | Gt -> (
      fun a b ->
        match (a, b) with
        | (Value.Vint x | Value.Vmod (x, _)), (Value.Vint y | Value.Vmod (y, _)) -> vbool (x > y)
        | _ -> vbool (Value.as_int a > Value.as_int b))
  | Ge -> (
      fun a b ->
        match (a, b) with
        | (Value.Vint x | Value.Vmod (x, _)), (Value.Vint y | Value.Vmod (y, _)) -> vbool (x >= y)
        | _ -> vbool (Value.as_int a >= Value.as_int b))
  | _ -> assert false

(* boolean operands take the logical reading, anything else the bitwise *)
let logical op bool_op =
  let bits = bitwise op in
  fun a b ->
    match (a, b) with
    | Value.Vbool x, Value.Vbool y -> vbool (bool_op x y)
    | x, y -> bits x y

(* [Value.array_get], whose errors become [Stuck] *)
let get av iv =
  match av with
  | Value.Varray (lo, a) when iv - lo >= 0 && iv - lo < Array.length a ->
      Array.unsafe_get a (iv - lo)
  | _ -> ( try Value.array_get av iv with Value.Runtime_error m -> stuck "%s" m)

let set av iv v = try Value.array_set av iv v with Value.Runtime_error m -> stuck "%s" m

(* ---------------- compiled programs ---------------- *)

type frame = Value.t array

(* Per-program interpreter data, cached per domain (see [programs]):

   - the global slot layout and the evaluated global initialisers as a
     template, so a fresh runtime copies one small array instead of
     re-evaluating ten 256-element AES tables;
   - every subprogram, compiled on its first call;
   - for each "const function" (scalar in-parameters, reads no mutable
     global, transitively), its behaviour: the key of its results in the
     domain's one const-function memo ([fn_memos]).

   Values are immutable (arrays are copy-on-update), so sharing the
   template values across runtimes, and memoized results across runtimes
   and programs, is safe. *)
type rt = {
  cp : cprog;
  globals : Value.t array;
  mutable fuel : int;
}

and cprog = {
  cp_env : Typecheck.env;
  cp_globals : (ident, int) Hashtbl.t;  (* global name -> slot *)
  cp_subs : (ident, csub) Hashtbl.t;  (* first declaration wins *)
  cp_fn_const : (ident, bool) Hashtbl.t;
  cp_closure_digest : (ident list -> string) Lazy.t;  (* [Share.closure_digest] *)
  cp_fn_memo : (string * Value.t list, Value.t) Memo.t;  (* the domain's [fn_memos] *)
  mutable cp_template : Value.t array option;
  mutable cp_init_cost : int;
}

and csub = {
  cs_sub : subprogram;
  cs_prog : cprog;
  mutable cs_code : code option;
  mutable cs_memo : fn_memo;
}

(* whether calls are memoized, asked of [fn_const] at the first call;
   a memoized function's results are keyed by its behaviour *)
and fn_memo = Unasked | Direct | Memoized of string

and code = {
  c_slots : int;
  c_params : (param_mode * int * (Value.t -> Value.t) * (unit -> Value.t)) list;
      (* mode, slot, coercion, default *)
  c_locals : rt -> frame -> unit;
  c_body : rt -> frame -> Value.t;
  c_return : Value.t -> Value.t;
}

type scope = {
  names : (ident * int) list;  (* innermost binding first *)
  next : int ref;  (* slots allocated so far in the frame *)
}

let tick rt =
  rt.fuel <- rt.fuel - 1;
  if rt.fuel <= 0 then raise Out_of_fuel

let fresh_slot sc x =
  let k = !(sc.next) in
  incr sc.next;
  ({ sc with names = (x, k) :: sc.names }, k)

(* parameters and locals share one binding per name: a later declaration
   of a name replaces the earlier one's value *)
let bind_name sc x =
  match List.assoc_opt x sc.names with Some k -> (sc, k) | None -> fresh_slot sc x

type place = Local of int | Global of int | Unbound

let place cp sc x =
  match List.assoc_opt x sc.names with
  | Some k -> Local k
  | None -> (
      match Hashtbl.find_opt cp.cp_globals x with Some g -> Global g | None -> Unbound)

let scalar_typ env t =
  match Typecheck.resolve env t with
  | Tbool | Tint _ | Tmod _ -> true
  | Tarray _ | Tnamed _ -> false

(* A name is "global-free" when evaluating its body can never read a
   mutable global: no identifier in its body or local initialisers names
   an [Obj_global], and every subprogram it calls is itself global-free.
   Conservative: a local shadowing a global name disqualifies, cycles are
   resolved optimistically (a recursive function is global-free unless
   some body in the cycle reads a global — the provisional [true] is
   corrected before anyone observes it because the whole cycle is
   analysed within this call). *)
let rec global_free cp env name =
  match Hashtbl.find_opt cp.cp_fn_const ("g:" ^ name) with
  | Some b -> b
  | None -> (
      Hashtbl.replace cp.cp_fn_const ("g:" ^ name) true;
      let result =
        match Hashtbl.find_opt cp.cp_subs name with
        | None -> false
        | Some { cs_sub = s; _ } ->
            let ok = ref true in
            let check_ident x =
              match List.assoc_opt x env.Typecheck.objects with
              | Some (Typecheck.Obj_global, _) -> ok := false
              | Some _ | None -> ()
            in
            let visit_expr e =
              iter_expr
                (fun e ->
                  match e with
                  | Var x | Old x -> check_ident x
                  | Call (f, _) ->
                      if Hashtbl.mem cp.cp_subs f then (
                        if not (global_free cp env f) then ok := false)
                      else check_ident f
                  | Bool_lit _ | Int_lit _ | Index _ | Unop _ | Binop _
                  | Aggregate _ | Result | Quantified _ ->
                      ())
                e
            in
            List.iter (fun v -> Option.iter visit_expr v.v_init) s.sub_locals;
            iter_stmts
              (fun st ->
                (match st with
                | Call_stmt (f, _) -> if not (global_free cp env f) then ok := false
                | Null | Assign _ | If _ | For _ | While _ | Return _ | Assert _
                  ->
                    ());
                iter_own_exprs visit_expr st)
              s.sub_body;
            !ok
      in
      Hashtbl.replace cp.cp_fn_const ("g:" ^ name) result;
      result)

(* Memoizable calls: functions whose parameters are all scalar (the key
   stays small and hash-friendly) and that never read mutable globals, so
   the result is a pure function of the argument values. *)
let fn_const cp env name =
  match Hashtbl.find_opt cp.cp_fn_const name with
  | Some b -> b
  | None ->
      let result =
        match Hashtbl.find_opt cp.cp_subs name with
        | None -> false
        | Some { cs_sub = s; _ } ->
            s.sub_return <> None
            && List.for_all
                 (fun p -> p.par_mode = Mode_in && scalar_typ env p.par_typ)
                 s.sub_params
            && global_free cp env name
      in
      Hashtbl.replace cp.cp_fn_const name result;
      result

(* ---------------- compilation ---------------- *)

let read_global x g rt =
  let v = Array.unsafe_get rt.globals g in
  if v == unset then stuck "unbound variable %s" x;
  v

(* An operand that needs no closure call of its own: a literal, or a
   local read that hands nothing out. *)
type operand = Lit of Value.t | Slot of int | Code of (rt -> frame -> Value.t)

let code = function
  | Lit v -> fun _ _ -> v
  | Slot k -> fun _ f -> Array.unsafe_get f k
  | Code c -> c

let rec cexpr cp sc e : rt -> frame -> Value.t =
  match e with
  | Bool_lit b ->
      let v = Value.Vbool b in
      fun _ _ -> v
  | Int_lit n ->
      let v = Value.Vint n in
      fun _ _ -> v
  | Var x | Old x (* annotations are not executed; defensive *) -> (
      match place cp sc x with
      | Local k -> fun _ f -> Array.unsafe_get f k
      | Global g -> fun rt _ -> read_global x g rt
      | Unbound -> fun _ _ -> stuck "unbound variable %s" x)
  | Result -> fun _ _ -> stuck "result outside postcondition"
  | Index (a, i) -> (
      match (operand cp sc a, operand cp sc i) with
      | Slot k, Slot j -> fun _ f -> get (Array.unsafe_get f k) (Value.as_int (Array.unsafe_get f j))
      | Slot k, Lit (Value.Vint n) -> fun _ f -> get (Array.unsafe_get f k) n
      | Code ca, Slot j ->
          fun rt f ->
            let av = ca rt f in
            get av (Value.as_int (Array.unsafe_get f j))
      | Code ca, Lit (Value.Vint n) -> fun rt f -> get (ca rt f) n
      | a, i ->
          let ca = code a and ci = code i in
          fun rt f ->
            let av = ca rt f in
            let iv = Value.as_int (ci rt f) in
            get av iv)
  | Unop (Neg, a) -> (
      let ca = cexpr cp sc a in
      fun rt f ->
        match ca rt f with
        | Value.Vint n -> vint (-n)
        | Value.Vmod (n, m) -> wrap m (-n)
        | v -> stuck "negating %s" (Value.to_string v))
  | Unop (Not, a) -> (
      let ca = cexpr cp sc a in
      fun rt f ->
        match ca rt f with
        | Value.Vbool b -> vbool (not b)
        | Value.Vmod (n, m) -> wrap m (m - 1 - n)
        | v -> stuck "not applied to %s" (Value.to_string v))
  | Binop (And_then, a, b) ->
      let ca = cexpr cp sc a and cb = cexpr cp sc b in
      fun rt f -> if Value.as_bool (ca rt f) then cb rt f else vfalse
  | Binop (Or_else, a, b) ->
      let ca = cexpr cp sc a and cb = cexpr cp sc b in
      fun rt f -> if Value.as_bool (ca rt f) then vtrue else cb rt f
  | Binop (op, a, b) -> (
      let apply =
        match op with
        | Add | Sub | Mul | Div | Mod -> arith op
        | Band | Bor -> bitwise op
        | Bxor -> logical Bxor ( <> )
        | And -> logical Band ( && )
        | Or -> logical Bor ( || )
        | Shl | Shr -> shift op
        | Eq | Ne | Lt | Le | Gt | Ge -> compare_values op
        | And_then | Or_else -> assert false
      in
      (* the right operand first *)
      match (operand cp sc a, operand cp sc b) with
      | Slot i, Slot j ->
          fun _ f ->
            let vb = Array.unsafe_get f j in
            apply (Array.unsafe_get f i) vb
      | Slot i, Lit vb -> fun _ f -> apply (Array.unsafe_get f i) vb
      | Code ca, Lit vb -> fun rt f -> apply (ca rt f) vb
      | Code ca, Slot j ->
          fun rt f ->
            let vb = Array.unsafe_get f j in
            apply (ca rt f) vb
      | Slot i, Code cb ->
          fun rt f ->
            let vb = cb rt f in
            apply (Array.unsafe_get f i) vb
      | a, b ->
          let ca = code a and cb = code b in
          fun rt f ->
            let vb = cb rt f in
            let va = ca rt f in
            apply va vb)
  | Call (name, args) -> (
      match Hashtbl.find_opt cp.cp_subs name with
      | Some cs when cs.cs_sub.sub_return <> None -> (
          match List.map (cexpr cp sc) args with
          | [] -> fun rt _ -> call_function rt cs []
          | [ c1 ] -> fun rt f -> call_function rt cs [ c1 rt f ]
          | [ c1; c2 ] ->
              fun rt f ->
                let v1 = c1 rt f in
                let v2 = c2 rt f in
                call_function rt cs [ v1; v2 ]
          | cargs -> fun rt f -> call_function rt cs (List.map (fun c -> c rt f) cargs))
      | Some _ -> fun _ _ -> stuck "procedure %s in expression" name
      | None -> (
          (* array indexing written call-style (pre-normalisation input) *)
          match (Hashtbl.find_opt cp.cp_globals name, args) with
          | Some g, [ i ] ->
              let ci = cexpr cp sc i in
              fun rt f ->
                let arr = Array.unsafe_get rt.globals g in
                if arr == unset then stuck "unknown function %s" name;
                let iv = Value.as_int (ci rt f) in
                get arr iv
          | _ -> fun _ _ -> stuck "unknown function %s" name))
  | Aggregate es ->
      let ces = Array.of_list (List.map (cexpr cp sc) es) in
      fun rt f -> Value.Varray (0, Array.map (fun c -> c rt f) ces)
  | Quantified (q, v, lo, hi, body) ->
      (* evaluable for testing annotation semantics *)
      let clo = cexpr cp sc lo and chi = cexpr cp sc hi in
      let sc', k = fresh_slot sc v in
      let cbody = cexpr cp sc' body in
      fun rt f ->
        let lov = Value.as_int (clo rt f) in
        let hiv = Value.as_int (chi rt f) in
        let holds i =
          f.(k) <- vint i;
          Value.as_bool (cbody rt f)
        in
        let rec all i = i > hiv || (holds i && all (i + 1)) in
        let rec some i = i <= hiv && (holds i || some (i + 1)) in
        vbool (match q with Forall -> all lov | Exists -> some lov)

and operand cp sc e =
  match e with
  | Int_lit n -> Lit (Value.Vint n)
  | Var x -> (
      match place cp sc x with Local k -> Slot k | Global _ | Unbound -> Code (cexpr cp sc e))
  | _ -> Code (cexpr cp sc e)

(* ---------------- statements ---------------- *)

(* A compiled statement list yields [fallthrough], [ret_none] or the
   returned value.  Every statement costs one unit of fuel before it
   runs, and so does every [while] iteration. *)
and cstmts cp sc stmts : rt -> frame -> Value.t =
  match stmts with
  | [] -> fun _ _ -> fallthrough
  | [ s ] -> cstmt cp sc s
  | s :: rest ->
      let cs = cstmt cp sc s and crest = cstmts cp sc rest in
      fun rt f ->
        let r = cs rt f in
        if r == fallthrough then crest rt f else r

and cstmt cp sc stmt : rt -> frame -> Value.t =
  match stmt with
  | Null | Assert _ (* annotation: not executed *) ->
      fun rt _ ->
        tick rt;
        fallthrough
  | Assign (lv, e) -> cassign cp sc lv (cexpr cp sc e)
  | If (branches, els) ->
      let cbranches = List.map (fun (g, body) -> (cexpr cp sc g, cstmts cp sc body)) branches in
      let cels = cstmts cp sc els in
      let rec pick rt f = function
        | [] -> cels rt f
        | (g, body) :: rest -> if Value.as_bool (g rt f) then body rt f else pick rt f rest
      in
      fun rt f ->
        tick rt;
        pick rt f cbranches
  | For fl ->
      let clo = cexpr cp sc fl.for_lo and chi = cexpr cp sc fl.for_hi in
      let sc', k = fresh_slot sc fl.for_var in
      let body = cstmts cp sc' fl.for_body in
      let reverse = fl.for_reverse in
      let step = if reverse then -1 else 1 in
      let rec run rt f i last =
        f.(k) <- vint i;
        let r = body rt f in
        if r == fallthrough then if i = last then fallthrough else run rt f (i + step) last
        else r
      in
      fun rt f ->
        tick rt;
        let lo = Value.as_int (clo rt f) in
        let hi = Value.as_int (chi rt f) in
        if lo > hi then fallthrough
        else if reverse then run rt f hi lo
        else run rt f lo hi
  | While wl ->
      let cond = cexpr cp sc wl.while_cond and body = cstmts cp sc wl.while_body in
      let rec run rt f =
        if Value.as_bool (cond rt f) then begin
          tick rt;
          let r = body rt f in
          if r == fallthrough then run rt f else r
        end
        else fallthrough
      in
      fun rt f ->
        tick rt;
        run rt f
  | Return None ->
      fun rt _ ->
        tick rt;
        ret_none
  | Return (Some e) ->
      let ce = cexpr cp sc e in
      fun rt f ->
        tick rt;
        ce rt f
  | Call_stmt (name, args) -> (
      match Hashtbl.find_opt cp.cp_subs name with
      | None ->
          fun rt _ ->
            tick rt;
            stuck "unknown procedure %s" name
      | Some cs ->
          let params = cs.cs_sub.sub_params in
          if List.compare_lengths params args <> 0 then fun rt _ ->
            tick rt;
            invalid_arg "List.map2"
          else
            (* copy-in: in and in-out actuals are evaluated, out actuals
               get a placeholder the callee replaces by its default *)
            let cargs =
              List.map2
                (fun p a ->
                  match p.par_mode with
                  | Mode_in | Mode_in_out -> cexpr cp sc a
                  | Mode_out -> fun _ _ -> Value.Vint 0)
                params args
            in
            (* copy-out *)
            let writes =
              List.map2
                (fun p a ->
                  match (p.par_mode, a) with
                  | Mode_in, _ -> None
                  | (Mode_out | Mode_in_out), Var x -> Some (cwrite cp sc x)
                  | (Mode_out | Mode_in_out), _ ->
                      Some (fun _ _ _ -> stuck "out actual is not a variable"))
                params args
            in
            fun rt f ->
              tick rt;
              let argv = List.map (fun c -> c rt f) cargs in
              let outs = call_procedure rt cs argv in
              List.iter2
                (fun w out ->
                  match (w, out) with Some w, Some v -> w rt f v | _ -> ())
                writes outs;
              fallthrough)

(* copy-out into a named variable *)
and cwrite cp sc x : rt -> frame -> Value.t -> unit =
  match place cp sc x with
  | Local k -> fun _ f v -> f.(k) <- v
  | Global g ->
      fun rt _ v ->
        if rt.globals.(g) == unset then stuck "assignment to unbound variable %s" x;
        rt.globals.(g) <- v
  | Unbound -> fun _ _ _ -> stuck "assignment to unbound variable %s" x

(* [lv := e]: the right-hand side first, then the target's indices, outer
   to inner, each exactly once; the value wraps into the modulus of the
   value it replaces. *)
and cassign cp sc lv ce : rt -> frame -> Value.t =
  let rec path lv idx =
    match lv with Lvar x -> (x, idx) | Lindex (lv', i) -> path lv' (cexpr cp sc i :: idx)
  in
  let x, idx = path lv [] in
  let adjust cur v =
    match (cur, v) with
    | Value.Vmod (_, m), (Value.Vint n | Value.Vmod (n, _)) -> wrap m n
    | _, v -> v
  in
  let rec update rt f idx cur v =
    match idx with
    | [] -> adjust cur v
    | ci :: rest ->
        let iv = Value.as_int (ci rt f) in
        set cur iv (update rt f rest (get cur iv) v)
  in
  match place cp sc x with
  | Local k ->
      fun rt f ->
        tick rt;
        let v = ce rt f in
        f.(k) <- update rt f idx (Array.unsafe_get f k) v;
        fallthrough
  | Global g ->
      fun rt f ->
        tick rt;
        let v = ce rt f in
        rt.globals.(g) <- update rt f idx (read_global x g rt) v;
        fallthrough
  | Unbound ->
      fun rt f ->
        tick rt;
        ignore (ce rt f);
        stuck "unbound variable %s" x

and compile_sub cp (s : subprogram) : code =
  let env = cp.cp_env in
  let sc = { names = []; next = ref 0 } in
  let sc, params =
    List.fold_left
      (fun (sc, acc) p ->
        let sc, k = bind_name sc p.par_name in
        let default =
          match p.par_mode with
          | Mode_out -> default_of env p.par_typ
          | Mode_in | Mode_in_out -> fun () -> assert false
        in
        (sc, (p.par_mode, k, coercion env p.par_typ, default) :: acc))
      (sc, []) s.sub_params
  in
  let sc, locals =
    List.fold_left
      (fun (sc, acc) vd ->
        (* the initialiser sees the parameters and the earlier locals *)
        let init =
          match vd.v_init with
          | Some e ->
              let ce = cexpr cp sc e and co = coercion env vd.v_typ in
              fun rt f -> co (ce rt f)
          | None ->
              let d = default_of env vd.v_typ in
              fun _ _ -> d ()
        in
        let sc, k = bind_name sc vd.v_name in
        (sc, (k, init) :: acc))
      (sc, []) s.sub_locals
  in
  let locals = Array.of_list (List.rev locals) in
  let body = cstmts cp sc s.sub_body in
  {
    c_slots = !(sc.next);
    c_params = List.rev params;
    c_locals =
      (fun rt f ->
        for i = 0 to Array.length locals - 1 do
          let k, init = locals.(i) in
          f.(k) <- init rt f
        done);
    c_body = body;
    c_return =
      (match s.sub_return with Some t -> coercion env t | None -> fun _ -> assert false);
  }

and code_of cs =
  match cs.cs_code with
  | Some c -> c
  | None ->
      let c = compile_sub cs.cs_prog cs.cs_sub in
      cs.cs_code <- Some c;
      c

(* a fresh frame with the parameters and locals bound *)
and enter rt cs argv =
  let c = code_of cs in
  let f = Array.make c.c_slots unset in
  let rec bind params argv =
    match (params, argv) with
    | [], [] -> ()
    | (mode, k, co, d) :: params, v :: argv ->
        f.(k) <- (match mode with Mode_in | Mode_in_out -> co v | Mode_out -> d ());
        bind params argv
    | _ -> invalid_arg "List.iter2"
  in
  bind c.c_params argv;
  c.c_locals rt f;
  (c, f)

and call_function rt cs argv =
  match cs.cs_memo with
  | Direct -> call_function_uncached rt cs argv
  | Memoized behaviour ->
      Memo.find cs.cs_prog.cp_fn_memo (behaviour, argv) (fun () ->
          call_function_uncached rt cs argv)
  | Unasked ->
      let cp = cs.cs_prog and name = cs.cs_sub.sub_name in
      cs.cs_memo <-
        (if fn_const cp cp.cp_env name then
           Memoized (name ^ " " ^ Lazy.force cp.cp_closure_digest [ name ])
         else Direct);
      call_function rt cs argv

and call_function_uncached rt cs argv =
  let c, f = enter rt cs argv in
  let r = c.c_body rt f in
  if r == fallthrough || r == ret_none then
    stuck "function %s did not return a value" cs.cs_sub.sub_name
  else c.c_return r

(* runs a procedure call on copied-in values (placeholders for out
   parameters); per parameter, the value to copy out (None for in) *)
and call_procedure rt cs argv =
  let c, f = enter rt cs argv in
  let r = c.c_body rt f in
  if r != fallthrough && r != ret_none then
    stuck "procedure %s returned a value" cs.cs_sub.sub_name;
  List.map
    (fun (mode, k, co, _) ->
      match mode with Mode_in -> None | Mode_out | Mode_in_out -> Some (co f.(k)))
    c.c_params

(* ---------------- the const-function memo ---------------- *)

(* One memo per domain for the results of every const function of every
   program the domain runs, keyed by (behaviour, argument values).  A
   refactoring script makes a new program version per step, and most of
   each version is the previous one's: keyed by behaviour, a result
   computed on one version serves every later version whose function
   has the same behaviour.

   A function's behaviour is its name with its [Share.closure_digest]:
   the function, every callee it can reach, and the constants and types
   they read, with everything their initialisers read, in program order.
   The name picks the function out of that closure, which two functions
   can share: the closure follows names syntactically, so a parameter
   named like a later function draws that function in.  A const function
   reads no mutable global, and a type-checked function writes none;
   every name it reaches is declared before it, so a global initialiser
   that calls it finds those constants set.  Two functions with the same
   behaviour therefore compute the same result from the same arguments,
   in any program.  The digest is the content identity closure-identity
   certificates trust ([Equivalence.same_closure]).

   Only a completed call stores its result: a call that raises ([Stuck],
   [Out_of_fuel]) stores nothing.  A hit skips the callee's fuel
   consumption, within a program and across programs alike: fuel stays
   an upper bound on work actually performed, and a divergence can only
   be reported when the body was actually run.  So near the fuel bound,
   whether a run completes can depend on what the domain ran before; the
   oracles' runs stay far below it.  The cap is one total for the
   domain: every byte pair of one two-byte-argument function, such as
   [gf_mul]. *)
let fn_memo_cap = 65_536

let fn_memos : (string * Value.t list, Value.t) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create fn_memo_cap)

let fn_memo_stats () = Memo.stats (Domain.DLS.get fn_memos)

(* ---------------- the program cache ---------------- *)

(* Compiled programs per domain, keyed by program and environment.
   Transformation steps keep unchanged declarations physically intact,
   and [Share.intern_decl] hands a re-derived, structurally equal
   declaration back as the earlier object while that one is still in its
   memo, so comparing two cached versions skips their shared
   declarations and stops at the first differing one.  The cap bounds
   the compiled code kept alive. *)
let program_cap = 4

let programs : (program * Typecheck.env, cprog) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create program_cap)

let memo_stats () = Memo.stats (Domain.DLS.get programs)

let compile_program env program =
  let cp =
    {
      cp_env = env;
      cp_globals = Hashtbl.create 32;
      cp_subs = Hashtbl.create 32;
      cp_fn_const = Hashtbl.create 16;
      cp_closure_digest = lazy (Share.closure_digest program);
      cp_fn_memo = Domain.DLS.get fn_memos;
      cp_template = None;
      cp_init_cost = 0;
    }
  in
  List.iter
    (function
      | Dsub s ->
          if not (Hashtbl.mem cp.cp_subs s.sub_name) then
            Hashtbl.add cp.cp_subs s.sub_name
              {
                cs_sub = s;
                cs_prog = cp;
                cs_code = None;
                cs_memo = Unasked;
              }
      | Dconst { k_name = x; _ } | Dvar { v_name = x; _ } ->
          if not (Hashtbl.mem cp.cp_globals x) then
            Hashtbl.add cp.cp_globals x (Hashtbl.length cp.cp_globals)
      | Dtype _ -> ())
    program.prog_decls;
  cp

let cprog_of env program =
  Memo.find (Domain.DLS.get programs) (program, env) (fun () ->
      compile_program env program)

(* ---------------- public API ---------------- *)

let default_fuel = 50_000_000

let top_scope () = { names = []; next = ref 0 }

(** Evaluate a closed expression in a frame of given bindings (pure: global
    constants of the program are visible). *)
let eval_expr rt bindings e =
  let sc, values =
    List.fold_left
      (fun (sc, values) (x, v) ->
        let sc, k = bind_name sc x in
        (sc, (k, v) :: values))
      (top_scope (), []) bindings
  in
  let ce = cexpr rt.cp sc e in
  let f = Array.make !(sc.next) unset in
  List.iter (fun (k, v) -> f.(k) <- v) (List.rev values);
  ce rt f

(** Build a runtime for a type-checked program: evaluates global constant
    and variable initialisers.  The evaluated initialisers are cached per
    (domain, program) and copied into subsequent runtimes — the values are
    immutable, so sharing them is safe.  A cached construction still
    accounts the fuel the initialisers consumed when first built. *)
let make ?(fuel = default_fuel) (env : Typecheck.env) (program : program) =
  let cp = cprog_of env program in
  match cp.cp_template with
  | Some template ->
      let remaining = fuel - cp.cp_init_cost in
      if remaining <= 0 then raise Out_of_fuel;
      { cp; globals = Array.copy template; fuel = remaining }
  | None ->
      let rt =
        { cp; globals = Array.make (Hashtbl.length cp.cp_globals) unset; fuel }
      in
      let init x typ e =
        let v =
          match e with
          | Some e -> coercion env typ (eval_expr rt [] e)
          | None -> default_value env typ
        in
        rt.globals.(Hashtbl.find cp.cp_globals x) <- v
      in
      List.iter
        (function
          | Dtype _ | Dsub _ -> ()
          | Dconst c -> init c.k_name c.k_typ (Some c.k_value)
          | Dvar v -> init v.v_name v.v_typ v.v_init)
        program.prog_decls;
      cp.cp_template <- Some (Array.copy rt.globals);
      cp.cp_init_cost <- fuel - rt.fuel;
      rt

let fresh_runtime ?fuel env program = make ?fuel env program
let fuel_left rt = rt.fuel

(** Call a function by name with OCaml-side argument values. *)
let run_function rt name argv =
  match Hashtbl.find_opt rt.cp.cp_subs name with
  | Some cs when cs.cs_sub.sub_return <> None -> call_function rt cs argv
  | Some _ -> stuck "%s is a procedure" name
  | None -> stuck "no function %s" name

(** Call a procedure with values for its [in] and [in out] parameters (in
    declaration order); [out] parameters are synthesised.  Returns the final
    values of out / in-out parameters, in declaration order. *)
let run_procedure rt name argv =
  match Hashtbl.find_opt rt.cp.cp_subs name with
  | Some cs when cs.cs_sub.sub_return = None ->
      let rec actuals params argv =
        match (params, argv) with
        | [], [] -> []
        | [], _ :: _ -> stuck "too many arguments to %s" name
        | p :: params, _ -> (
            match p.par_mode with
            | Mode_out -> Value.Vint 0 :: actuals params argv
            | Mode_in | Mode_in_out -> (
                match argv with
                | v :: argv -> v :: actuals params argv
                | [] -> stuck "too few arguments to %s" name))
      in
      let outs = call_procedure rt cs (actuals cs.cs_sub.sub_params argv) in
      List.filter_map (fun v -> v) outs
  | Some _ -> stuck "%s is a function" name
  | None -> stuck "no procedure %s" name

let global_value rt name =
  match Hashtbl.find_opt rt.cp.cp_globals name with
  | Some g -> rt.globals.(g)
  | None -> stuck "no global %s" name
