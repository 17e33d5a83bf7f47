(* Evaluator for the specification language.  Specifications must be
   executable: the implication proof discharges leaf lemmas by exhaustive
   evaluation over finite domains, and specification-level known-answer
   tests validate the FIPS-197 formalisation itself. *)

open Sast

type value =
  | Vbool of bool
  | Vint of int
  | Varr of int * value array
  | Vtup of value list

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let rec equal a b =
  match (a, b) with
  | Vbool x, Vbool y -> x = y
  | Vint x, Vint y -> x = y
  | Varr (lo, x), Varr (lo', y) ->
      lo = lo' && Array.length x = Array.length y
      && (let ok = ref true in
          Array.iteri (fun i v -> if not (equal v y.(i)) then ok := false) x;
          !ok)
  | Vtup x, Vtup y -> List.length x = List.length y && List.for_all2 equal x y
  | _ -> false

let rec to_string = function
  | Vbool b -> string_of_bool b
  | Vint n -> string_of_int n
  | Varr (_, a) ->
      "[" ^ String.concat "; " (Array.to_list (Array.map to_string a)) ^ "]"
  | Vtup vs -> "(" ^ String.concat ", " (List.map to_string vs) ^ ")"

let as_int = function
  | Vint n -> n
  | Vbool _ | Varr _ | Vtup _ as v -> error "expected integer, got %s" (to_string v)

let as_bool = function
  | Vbool b -> b
  | v -> error "expected boolean, got %s" (to_string v)

let default_fuel = 10_000_000

type env = {
  theory : theory;
  mutable fuel : int;
}

let make ?(fuel = default_fuel) theory = { theory; fuel }

(* ---------------- primitives ---------------- *)

(* Small integers (bytes included) and the two booleans are shared, not
   allocated: values are immutable and compared structurally. *)
let small_ints = Array.init 256 (fun n -> Vint n)
let vint n = if n land lnot 255 = 0 then Array.unsafe_get small_ints n else Vint n
let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

let prim1 p a =
  match p with
  | Pneg -> vint (-as_int a)
  | Pnot -> vbool (not (as_bool a))
  | _ -> error "bad primitive application"

(* a binary primitive on its two evaluated operands, with no argument
   list *)
let prim2 p a b =
  match p with
  | Padd -> vint (as_int a + as_int b)
  | Psub -> vint (as_int a - as_int b)
  | Pmul -> vint (as_int a * as_int b)
  | Pdiv ->
      let d = as_int b in
      if d = 0 then error "division by zero" else vint (as_int a / d)
  | Pmod ->
      let d = as_int b in
      if d = 0 then error "mod by zero"
      else vint (((as_int a mod d) + abs d) mod abs d)
  | Peq -> vbool (equal a b)
  | Pne -> vbool (not (equal a b))
  | Plt -> vbool (as_int a < as_int b)
  | Ple -> vbool (as_int a <= as_int b)
  | Pgt -> vbool (as_int a > as_int b)
  | Pge -> vbool (as_int a >= as_int b)
  | Pand -> vbool (as_bool a && as_bool b)
  | Por -> vbool (as_bool a || as_bool b)
  | Pband -> vint (as_int a land as_int b)
  | Pbor -> vint (as_int a lor as_int b)
  | Pbxor -> vint (as_int a lxor as_int b)
  | Pshl ->
      let k = as_int b in
      if k < 0 || k > 62 then error "shift out of range" else vint (as_int a lsl k)
  | Pshr ->
      let k = as_int b in
      if k < 0 || k > 62 then error "shift out of range" else vint (as_int a lsr k)
  | Pneg | Pnot -> error "bad primitive application"

(* ---------------- compiled theories ---------------- *)

(* A theory is compiled once per domain: every definition becomes a
   [cdef] whose body is an OCaml closure over the environment (for its
   fuel) and a frame, an array holding the parameters in its first slots
   and then one slot per [Slet], [Sfold] and [Stabulate] binder of the
   body.  A name is resolved when its node is compiled: a binder's slot,
   else a 0-ary definition, else a closure that raises "unbound" when the
   node is evaluated, never earlier (unknown functions and arity
   mismatches alike).  An application holds its callee's [cdef]. *)

type frame = value array
type code = env -> frame -> value

(* Definitions are pure and closed — a body sees only its parameters and
   the theory — so an application whose arguments are all scalar is a
   function of (definition, arguments) and its result is memoized on the
   compiled definition:

   - a definition whose parameters are all [Smod] types, with at most
     [dense_cap] argument tuples, keeps a dense table indexed by its
     in-range integer arguments, allocated at its first application; a
     0-ary table or named constant is the one-entry case;
   - any other all-scalar application goes to the definition's bounded
     [Memo.t], created at its first use.

   A hit skips the body's fuel, as Interp's const-function memo does; a
   body that raises (fuel exhaustion included) is never stored.  Memoized
   array results are shared, which is safe because [Supdate] copies and
   no caller mutates a spec value. *)
let dense_cap = 65_536
let memo_cap = 65_536

(* a compiled theory's memo events: the dense tables' counted here, the
   keyed tables' by the tables themselves *)
type tally = {
  mutable hits : int;
  mutable misses : int;
  mutable keyed : (value array, value) Memo.t list;
}

type cdef = {
  cd_arity : int;
  mutable cd_slots : int;  (* frame size, parameters first *)
  mutable cd_body : code;
  cd_moduli : int array option;  (* the parameters' moduli, if dense *)
  mutable cd_dense : value option array;  (* empty until first used *)
  mutable cd_keyed : (value array, value) Memo.t option;
  cd_tally : tally;  (* the theory's *)
}

let tick env =
  env.fuel <- env.fuel - 1;
  if env.fuel <= 0 then error "specification evaluation out of fuel"

(* never read: every slot is written before its binder's scope runs *)
let unset = Vbool false

let frame cd = Array.make cd.cd_slots unset

let scalar = function Vint _ | Vbool _ -> true | Varr _ | Vtup _ -> false

let hit cd v =
  cd.cd_tally.hits <- cd.cd_tally.hits + 1;
  v

(* the dense-table index of the arguments in [fr], or -1 when [cd] has no
   dense table or an argument is not an integer in its parameter's range *)
let rec dense_index_from m (fr : frame) i acc =
  if i = Array.length m then acc
  else
    match Array.unsafe_get fr i with
    | Vint n when n >= 0 && n < Array.unsafe_get m i ->
        dense_index_from m fr (i + 1) ((acc * Array.unsafe_get m i) + n)
    | _ -> -1

let dense_index cd fr =
  match cd.cd_moduli with None -> -1 | Some m -> dense_index_from m fr 0 0

let rec all_scalar (fr : frame) i n = i >= n || (scalar fr.(i) && all_scalar fr (i + 1) n)

let keyed cd =
  match cd.cd_keyed with
  | Some t -> t
  | None ->
      let t = Memo.create memo_cap in
      cd.cd_keyed <- Some t;
      cd.cd_tally.keyed <- t :: cd.cd_tally.keyed;
      t

(* [cd] applied to the arguments in the first slots of [fr], a fresh
   frame of its size *)
let call cd env fr =
  let k = dense_index cd fr in
  if k >= 0 then begin
    if Array.length cd.cd_dense = 0 then
      cd.cd_dense <-
        Array.make (Array.fold_left ( * ) 1 (Option.get cd.cd_moduli)) None;
    match Array.unsafe_get cd.cd_dense k with
    | Some v -> hit cd v
    | None ->
        cd.cd_tally.misses <- cd.cd_tally.misses + 1;
        let v = cd.cd_body env fr in
        cd.cd_dense.(k) <- Some v;
        v
  end
  else if all_scalar fr 0 cd.cd_arity then
    Memo.find (keyed cd) (Array.sub fr 0 cd.cd_arity) (fun () -> cd.cd_body env fr)
  else cd.cd_body env fr

(* a 0-ary definition's value; a frame only when the body runs *)
let call0 cd env =
  match cd.cd_dense with [| Some v |] -> hit cd v | _ -> call cd env (frame cd)

type scope = {
  names : (string * int) list;  (* innermost binding first *)
  next : int ref;  (* slots allocated so far in the frame *)
}

let bind sc x =
  let k = !(sc.next) in
  incr sc.next;
  ({ sc with names = (x, k) :: sc.names }, k)

(* the values of a list of compiled expressions, left to right *)
let rec run_all env fr = function
  | [] -> []
  | c :: cs ->
      let v = c env fr in
      v :: run_all env fr cs

let rec compile defs sc e : code =
  match e with
  | Sbool_lit b ->
      let v = vbool b in
      fun env _ ->
        tick env;
        v
  | Sint_lit n ->
      let v = vint n in
      fun env _ ->
        tick env;
        v
  | Svar x -> (
      match List.assoc_opt x sc.names with
      | Some k ->
          fun env fr ->
            tick env;
            Array.unsafe_get fr k
      | None -> (
          (* 0-ary definitions (tables, named constants) *)
          match Hashtbl.find_opt defs x with
          | Some cd when cd.cd_arity = 0 ->
              fun env _ ->
                tick env;
                call0 cd env
          | _ ->
              fun env _ ->
                tick env;
                error "unbound specification variable %s" x))
  | Sif (c, a, b) ->
      let cc = compile defs sc c and ca = compile defs sc a and cb = compile defs sc b in
      fun env fr ->
        tick env;
        if as_bool (cc env fr) then ca env fr else cb env fr
  | Slet (x, a, b) ->
      let ca = compile defs sc a in
      let sc', k = bind sc x in
      let cb = compile defs sc' b in
      fun env fr ->
        tick env;
        Array.unsafe_set fr k (ca env fr);
        cb env fr
  | Sprim (p, [ a; b ]) ->
      let ca = compile defs sc a and cb = compile defs sc b in
      fun env fr ->
        tick env;
        let va = ca env fr in
        let vb = cb env fr in
        prim2 p va vb
  | Sprim (p, [ a ]) ->
      let ca = compile defs sc a in
      fun env fr ->
        tick env;
        prim1 p (ca env fr)
  | Sprim (_, args) ->
      let cargs = List.map (compile defs sc) args in
      fun env fr ->
        tick env;
        ignore (run_all env fr cargs);
        error "bad primitive application"
  | Sapp (name, args) -> (
      match Hashtbl.find_opt defs name with
      | None ->
          fun env _ ->
            tick env;
            error "unknown specification function %s" name
      | Some cd when cd.cd_arity <> List.length args ->
          fun env _ ->
            tick env;
            error "arity mismatch applying %s" name
      | Some cd ->
          let cargs = Array.of_list (List.map (compile defs sc) args) in
          fun env fr ->
            tick env;
            let fr' = frame cd in
            for i = 0 to Array.length cargs - 1 do
              Array.unsafe_set fr' i ((Array.unsafe_get cargs i) env fr)
            done;
            call cd env fr')
  | Sarray_lit (lo, es) ->
      let ces = Array.of_list (List.map (compile defs sc) es) in
      fun env fr ->
        tick env;
        let a = Array.make (Array.length ces) unset in
        for i = 0 to Array.length ces - 1 do
          Array.unsafe_set a i ((Array.unsafe_get ces i) env fr)
        done;
        Varr (lo, a)
  | Sindex (a, i) ->
      let ca = compile defs sc a and ci = compile defs sc i in
      fun env fr -> (
        tick env;
        match ca env fr with
        | Varr (lo, data) ->
            let k = as_int (ci env fr) - lo in
            if k < 0 || k >= Array.length data then error "spec index out of range"
            else Array.unsafe_get data k
        | v -> error "indexing non-array %s" (to_string v))
  | Supdate (a, i, v) ->
      let ca = compile defs sc a and ci = compile defs sc i and cv = compile defs sc v in
      fun env fr -> (
        tick env;
        match ca env fr with
        | Varr (lo, data) ->
            let k = as_int (ci env fr) - lo in
            if k < 0 || k >= Array.length data then error "spec update out of range"
            else
              let data' = Array.copy data in
              data'.(k) <- cv env fr;
              Varr (lo, data')
        | v -> error "updating non-array %s" (to_string v))
  | Stuple_lit es ->
      let ces = List.map (compile defs sc) es in
      fun env fr ->
        tick env;
        Vtup (run_all env fr ces)
  | Sproj (k, e) ->
      let ce = compile defs sc e in
      fun env fr -> (
        tick env;
        match ce env fr with
        | Vtup vs when k < List.length vs -> List.nth vs k
        | v -> error "projection %d from %s" k (to_string v))
  | Stabulate (lo, hi, x, body) ->
      let sc', k = bind sc x in
      let cbody = compile defs sc' body in
      fun env fr ->
        tick env;
        Varr
          ( lo,
            Array.init (hi - lo + 1) (fun i ->
                Array.unsafe_set fr k (vint (lo + i));
                cbody env fr) )
  | Sfold f ->
      let clo = compile defs sc f.f_lo and chi = compile defs sc f.f_hi in
      let cinit = compile defs sc f.f_init in
      (* the index shadows an accumulator of the same name *)
      let sc', ka = bind sc f.f_acc in
      let sc', ki = bind sc' f.f_var in
      let cbody = compile defs sc' f.f_body in
      fun env fr ->
        tick env;
        let lo = as_int (clo env fr) in
        let hi = as_int (chi env fr) in
        let acc = ref (cinit env fr) in
        for i = lo to hi do
          Array.unsafe_set fr ki (vint i);
          Array.unsafe_set fr ka !acc;
          acc := cbody env fr
        done;
        !acc

(* the moduli of a definition's parameters when all are [Smod] types with
   at most [dense_cap] argument tuples *)
let moduli th d =
  let modulus (_, t) =
    match resolve_typ th t with
    | Smod m when m > 0 -> Some m
    | _ | (exception Invalid_argument _) -> None
  in
  let ms = List.map modulus d.sd_params in
  if List.for_all Option.is_some ms
     && List.fold_left (fun n m -> min (n * Option.get m) (dense_cap + 1)) 1 ms <= dense_cap
  then Some (Array.of_list (List.map Option.get ms))
  else None

type ctheory = {
  ct_defs : (string, cdef) Hashtbl.t;  (* first definition of a name wins *)
  ct_tally : tally;
}

let compile_theory th =
  let tally = { hits = 0; misses = 0; keyed = [] } in
  let defs = Hashtbl.create 64 in
  let cdefs =
    List.filter_map
      (fun d ->
        if Hashtbl.mem defs d.sd_name then None
        else
          let cd =
            { cd_arity = List.length d.sd_params; cd_slots = 0;
              cd_body = (fun _ _ -> assert false); cd_moduli = moduli th d;
              cd_dense = [||]; cd_keyed = None; cd_tally = tally }
          in
          Hashtbl.add defs d.sd_name cd;
          Some (d, cd))
      th.th_defs
  in
  List.iter
    (fun (d, cd) ->
      (* a later parameter of the same name is shadowed by the first *)
      let next = ref 0 in
      let names = List.map (fun (p, _) -> (p, (incr next; !next - 1))) d.sd_params in
      cd.cd_body <- compile defs { names; next } d.sd_body;
      cd.cd_slots <- !next)
    cdefs;
  { ct_defs = defs; ct_tally = tally }

let add_stats (a : Memo.stats) (b : Memo.stats) =
  { Memo.hits = a.hits + b.hits; misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions }

let ctheory_stats ct =
  List.fold_left
    (fun s t -> add_stats s (Memo.stats t))
    { Memo.hits = ct.ct_tally.hits; misses = ct.ct_tally.misses; evictions = 0 }
    ct.ct_tally.keyed

(* Compiled theories per domain, told apart by physical identity: the
   [theories_cap] most recently compiled, newest first.  A dropped
   theory's memo counts move to [retired], so the domain's counters only
   grow. *)
let theories_cap = 16

type compiled = {
  mutable theories : (theory * ctheory) list;
  mutable retired : Memo.stats;
}

let compiled_key : compiled Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { theories = []; retired = { Memo.hits = 0; misses = 0; evictions = 0 } })

let compiled th =
  let c = Domain.DLS.get compiled_key in
  match List.assq_opt th c.theories with
  | Some ct -> ct
  | None ->
      let ct = compile_theory th in
      let keep = List.filteri (fun i _ -> i < theories_cap - 1) c.theories in
      List.iteri
        (fun i (_, old) ->
          if i >= theories_cap - 1 then c.retired <- add_stats c.retired (ctheory_stats old))
        c.theories;
      c.theories <- (th, ct) :: keep;
      ct

let memo_stats () =
  let c = Domain.DLS.get compiled_key in
  List.fold_left (fun s (_, ct) -> add_stats s (ctheory_stats ct)) c.retired c.theories

let eval env bindings e =
  let ct = compiled env.theory in
  let next = ref 0 in
  let names = List.map (fun (x, _) -> (x, (incr next; !next - 1))) bindings in
  let code = compile ct.ct_defs { names; next } e in
  let fr = Array.make !next unset in
  List.iteri (fun i (_, v) -> fr.(i) <- v) bindings;
  code env fr

(** Apply a named definition to values. *)
let apply env name argv =
  let cd =
    match Hashtbl.find_opt (compiled env.theory).ct_defs name with
    | Some cd -> cd
    | None ->
        (* no such definition: [find_def_exn] raises *)
        ignore (find_def_exn env.theory name);
        assert false
  in
  if List.length argv <> cd.cd_arity then error "arity mismatch applying %s" name;
  let fr = frame cd in
  List.iteri (fun i v -> fr.(i) <- v) argv;
  call cd env fr

(** Default value of a type — for building sample inputs. *)
let rec default env t =
  match resolve_typ env.theory t with
  | Sbool -> Vbool false
  | Sint | Smod _ -> Vint 0
  | Sarray (lo, hi, elt) -> Varr (lo, Array.init (hi - lo + 1) (fun _ -> default env elt))
  | Stuple ts -> Vtup (List.map (default env) ts)
  | Snamed _ -> assert false

(** All values of a finite scalar type, when small enough to enumerate. *)
let enumerate env ?(limit = 65536) t =
  match resolve_typ env.theory t with
  | Sbool -> Some [ Vbool false; Vbool true ]
  | Smod m when m <= limit -> Some (List.init m (fun k -> Vint k))
  | _ -> None
