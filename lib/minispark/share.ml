(* Declaration-level sharing for the MiniSpark AST.

   Three per-domain memos, each a bounded [Memo.t] keyed structurally
   ([Hashtbl.hash], then [compare], which stops early at physically
   shared subtrees):

   - a declaration unifier that maps a rebuilt-but-structurally-equal
     declaration back to the earlier object, which is what lets
     [Typecheck.check_incremental] and the [Interp] program cache
     recognise untouched declarations by pointer comparison across
     transformation steps;

   - [decl_refs], the incremental checker's dependency frontier;

   - [decl_digest], a sharing-independent content digest.

   All state lives in [Domain.DLS]: each domain unifies independently, so
   farm workers never contend and never see another domain's pointers. *)

open Ast

(* a few hundred distinct declarations cover a whole AES refactoring run;
   the cap keeps a long-lived server from pinning every program it saw *)
let memo_cap = 1024

type memos = {
  unify : (decl, decl) Memo.t;
  refs : (decl, ident list) Memo.t;
  digests : (decl, string) Memo.t;
}

let memos_key : memos Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        unify = Memo.create memo_cap;
        refs = Memo.create memo_cap;
        digests = Memo.create memo_cap;
      })

let memos () = Domain.DLS.get memos_key

let memo_stats () =
  let m = memos () in
  [
    ("share_unify_memo", Memo.stats m.unify);
    ("share_refs_memo", Memo.stats m.refs);
    ("share_digest_memo", Memo.stats m.digests);
  ]

let intern_decl d = Memo.find (memos ()).unify d (fun () -> d)

let intern_program p =
  let decls' = map_sharing intern_decl p.prog_decls in
  if decls' == p.prog_decls then p else { p with prog_decls = decls' }

(* ------------------------------------------------------------------ *)
(* Conservative syntactic references of a declaration                  *)
(* ------------------------------------------------------------------ *)

let rec typ_refs acc = function
  | Tnamed n -> n :: acc
  | Tarray (_, _, t) -> typ_refs acc t
  | Tbool | Tint _ | Tmod _ -> acc

let expr_refs acc e =
  let acc = ref acc in
  iter_expr
    (fun e ->
      match e with
      | Var x | Old x -> acc := x :: !acc
      | Call (f, _) -> acc := f :: !acc
      | Bool_lit _ | Int_lit _ | Index _ | Unop _ | Binop _ | Aggregate _
      | Result | Quantified _ ->
          ())
    e;
  !acc

let stmts_refs acc ss =
  let acc = ref acc in
  iter_stmts
    (fun stmt ->
      (match stmt with
      | Assign (lv, _) -> acc := lvalue_base lv :: !acc
      | Call_stmt (n, _) -> acc := n :: !acc
      | For fl -> acc := fl.for_var :: !acc
      | Null | If _ | While _ | Return _ | Assert _ -> ());
      iter_own_exprs (fun e -> acc := expr_refs !acc e) stmt)
    ss;
  !acc

let opt_expr_refs acc = function None -> acc | Some e -> expr_refs acc e

let compute_decl_refs = function
  | Dtype (_, t) -> List.sort_uniq String.compare (typ_refs [] t)
  | Dconst c ->
      List.sort_uniq String.compare (expr_refs (typ_refs [] c.k_typ) c.k_value)
  | Dvar v ->
      List.sort_uniq String.compare (opt_expr_refs (typ_refs [] v.v_typ) v.v_init)
  | Dsub sub ->
      let acc =
        List.fold_left (fun acc p -> typ_refs acc p.par_typ) [] sub.sub_params
      in
      let acc =
        match sub.sub_return with None -> acc | Some t -> typ_refs acc t
      in
      let acc = opt_expr_refs acc sub.sub_pre in
      let acc = opt_expr_refs acc sub.sub_post in
      let acc =
        List.fold_left
          (fun acc v -> opt_expr_refs (typ_refs acc v.v_typ) v.v_init)
          acc sub.sub_locals
      in
      List.sort_uniq String.compare (stmts_refs acc sub.sub_body)

let decl_refs d = Memo.find (memos ()).refs d (fun () -> compute_decl_refs d)

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

(* [No_sharing] so the digest depends only on structure, never on how a
   value happens to be pointer-shared. *)
let marshal_digest x =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

let decl_digest d = Memo.find (memos ()).digests d (fun () -> marshal_digest d)
let program_digest p = marshal_digest p

let decls_digest (p : program) =
  Digest.to_hex
    (Digest.string (String.concat " " (p.prog_name :: List.map decl_digest p.prog_decls)))

(* [compare] skips physically equal subtrees, which [=] does not *)
let same_decls (a : program) (b : program) =
  String.equal a.prog_name b.prog_name
  && List.equal (fun x y -> x == y || compare x y = 0) a.prog_decls b.prog_decls

let interface_digest (sp : subprogram) =
  marshal_digest (sp.sub_name, sp.sub_params, sp.sub_return, sp.sub_pre, sp.sub_post)

(* The one reachability walk behind the closure-keyed memos (the oracle
   run memo, the VC-generation memo); each caller picks its roots. *)
let closure (prog : program) =
  let by_name = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.add by_name (decl_name d) d) prog.prog_decls;
  fun roots ->
    let reached = Hashtbl.create 64 in
    let rec visit n =
      if not (Hashtbl.mem reached n) then begin
        Hashtbl.replace reached n ();
        List.iter
          (fun d -> List.iter visit (decl_refs d))
          (Hashtbl.find_all by_name n)
      end
    in
    List.iter visit roots;
    List.filter (fun d -> Hashtbl.mem reached (decl_name d)) prog.prog_decls

let closure_digest (prog : program) =
  let closure = closure prog in
  fun roots ->
    Digest.to_hex (Digest.string (String.concat "" (List.map decl_digest (closure roots))))
