open Minispark

type change =
  | Unchanged
  | Body_changed
  | Sig_or_spec_changed
  | Added
  | Removed

let change_name = function
  | Unchanged -> "unchanged"
  | Body_changed -> "body-changed"
  | Sig_or_spec_changed -> "sig-or-spec-changed"
  | Added -> "added"
  | Removed -> "removed"

type t = {
  sd_subs : (Ast.ident * change) list;
  sd_decls : Ast.ident list;
}

(* Digests are taken over the canonical pretty-printed form: the printer
   round-trips through the parser, so two sources that parse to the same
   AST — whatever their spacing or comments — digest identically. *)

let mode_tag = function
  | Ast.Mode_in -> "in"
  | Ast.Mode_out -> "out"
  | Ast.Mode_in_out -> "in out"

let sig_string (sp : Ast.subprogram) =
  let b = Buffer.create 128 in
  Buffer.add_string b sp.Ast.sub_name;
  List.iter
    (fun (p : Ast.param) ->
      Buffer.add_string b
        (Printf.sprintf "|%s:%s:%s" p.Ast.par_name (mode_tag p.Ast.par_mode)
           (Pretty.typ_to_string p.Ast.par_typ)))
    sp.Ast.sub_params;
  Buffer.add_string b
    (match sp.Ast.sub_return with
    | Some ty -> "|ret:" ^ Pretty.typ_to_string ty
    | None -> "|proc");
  Buffer.add_string b
    (match sp.Ast.sub_pre with
    | Some e -> "|pre:" ^ Pretty.expr_to_string e
    | None -> "|pre:-");
  Buffer.add_string b
    (match sp.Ast.sub_post with
    | Some e -> "|post:" ^ Pretty.expr_to_string e
    | None -> "|post:-");
  Buffer.contents b

let body_string (sp : Ast.subprogram) =
  let b = Buffer.create 256 in
  List.iter
    (fun (v : Ast.var_decl) ->
      Buffer.add_string b
        (Printf.sprintf "|%s:%s:%s" v.Ast.v_name
           (Pretty.typ_to_string v.Ast.v_typ)
           (match v.Ast.v_init with
           | Some e -> Pretty.expr_to_string e
           | None -> "-")))
    sp.Ast.sub_locals;
  Buffer.add_string b "||";
  Buffer.add_string b (Pretty.stmts_to_string sp.Ast.sub_body);
  Buffer.contents b

let hex s = Digest.to_hex (Digest.string s)
let sig_digest sp = hex (sig_string sp)
let body_digest sp = hex (body_string sp)

let decl_digests (p : Ast.program) =
  let ds = ref [] in
  List.iter
    (fun (n, ty) -> ds := (n, hex ("type:" ^ Pretty.typ_to_string ty)) :: !ds)
    (Ast.type_decls p);
  List.iter
    (fun (k : Ast.const_decl) ->
      ds :=
        ( k.Ast.k_name,
          hex
            (Printf.sprintf "const:%s:%s"
               (Pretty.typ_to_string k.Ast.k_typ)
               (Pretty.expr_to_string k.Ast.k_value)) )
        :: !ds)
    (Ast.constants p);
  List.iter
    (fun (v : Ast.var_decl) ->
      ds :=
        ( v.Ast.v_name,
          hex
            (Printf.sprintf "var:%s:%s"
               (Pretty.typ_to_string v.Ast.v_typ)
               (match v.Ast.v_init with
               | Some e -> Pretty.expr_to_string e
               | None -> "-")) )
        :: !ds)
    (Ast.global_vars p);
  List.rev !ds

let diff ~old_p ~new_p =
  let old_subs = Ast.subprograms old_p and new_subs = Ast.subprograms new_p in
  let classify (sp : Ast.subprogram) =
    match Ast.find_sub new_p sp.Ast.sub_name with
    | None -> (sp.Ast.sub_name, Removed)
    | Some sp' ->
        (* equal trees print equally: skip the printer *)
        if sp == sp' || sp = sp' then (sp.Ast.sub_name, Unchanged)
        else if sig_digest sp <> sig_digest sp' then
          (sp.Ast.sub_name, Sig_or_spec_changed)
        else if body_digest sp <> body_digest sp' then
          (sp.Ast.sub_name, Body_changed)
        else (sp.Ast.sub_name, Unchanged)
  in
  let of_old = List.map classify old_subs in
  let added =
    List.filter_map
      (fun (sp : Ast.subprogram) ->
        match Ast.find_sub old_p sp.Ast.sub_name with
        | None -> Some (sp.Ast.sub_name, Added)
        | Some _ -> None)
      new_subs
  in
  let old_decls = decl_digests old_p and new_decls = decl_digests new_p in
  let decl_changed =
    let changed_or_removed =
      List.filter_map
        (fun (n, d) ->
          match List.assoc_opt n new_decls with
          | Some d' when d' = d -> None
          | _ -> Some n)
        old_decls
    in
    let added =
      List.filter_map
        (fun (n, _) ->
          match List.assoc_opt n old_decls with
          | None -> Some n
          | Some _ -> None)
        new_decls
    in
    List.sort_uniq compare (changed_or_removed @ added)
  in
  { sd_subs = of_old @ added; sd_decls = decl_changed }

let changed_subs t =
  List.filter_map
    (fun (n, c) -> if c = Unchanged then None else Some n)
    t.sd_subs
  |> List.sort compare

let sig_changed_subs t =
  List.filter_map
    (fun (n, c) ->
      match c with
      | Sig_or_spec_changed | Added | Removed -> Some n
      | Unchanged | Body_changed -> None)
    t.sd_subs
  |> List.sort compare

let is_empty t = changed_subs t = [] && t.sd_decls = []

let pp ppf t =
  if is_empty t then Fmt.pf ppf "no semantic changes"
  else begin
    Fmt.pf ppf "@[<v>";
    List.iter
      (fun (n, c) ->
        if c <> Unchanged then Fmt.pf ppf "%-28s %s@," n (change_name c))
      t.sd_subs;
    List.iter (fun d -> Fmt.pf ppf "%-28s decl-changed@," d) t.sd_decls;
    Fmt.pf ppf "@]"
  end

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"subprograms\":[";
  List.iteri
    (fun i (n, c) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":%S,\"change\":%S}" n (change_name c)))
    t.sd_subs;
  Buffer.add_string b "],\"decls_changed\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%S" d))
    t.sd_decls;
  Buffer.add_string b "]}";
  Buffer.contents b
