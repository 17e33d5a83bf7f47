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

(* The outline: one entry per declaration, in program order, carrying
   the content digest the VC-generation memo and the proof-cache
   signature already take ({!Share.decl_digest}, memoized per
   declaration), plus an interface digest for a subprogram.  It is all a
   later diff reads of a baseline, so a baseline travels and is stored
   as this instead of as source text. *)

type kind = K_type | K_const | K_var | K_sub

let kind_name = function
  | K_type -> "type"
  | K_const -> "const"
  | K_var -> "var"
  | K_sub -> "sub"

let kind_of_name = function
  | "type" -> Some K_type
  | "const" -> Some K_const
  | "var" -> Some K_var
  | "sub" -> Some K_sub
  | _ -> None

type entry = {
  ol_name : Ast.ident;
  ol_kind : kind;
  ol_digest : string;
  ol_iface : string;
}

type outline = entry list

let outline (p : Ast.program) =
  List.map
    (fun d ->
      let ol_digest = Share.decl_digest d in
      match d with
      | Ast.Dtype (n, _) ->
          { ol_name = n; ol_kind = K_type; ol_digest; ol_iface = "" }
      | Ast.Dconst k ->
          { ol_name = k.Ast.k_name; ol_kind = K_const; ol_digest; ol_iface = "" }
      | Ast.Dvar v ->
          { ol_name = v.Ast.v_name; ol_kind = K_var; ol_digest; ol_iface = "" }
      | Ast.Dsub sp ->
          { ol_name = sp.Ast.sub_name; ol_kind = K_sub; ol_digest;
            ol_iface = Share.interface_digest sp })
    p.Ast.prog_decls

(* the first entry of each kind and name, in program order: the
   declaration a lookup by name resolves to *)
let index (o : outline) =
  let t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (e.ol_kind, e.ol_name) in
      if not (Hashtbl.mem t key) then Hashtbl.add t key e)
    o;
  t

(* Equal content digests mean structurally equal declarations.  A served
   program is the normal form [Typecheck.check] returns, on which the
   printer round-trips, so this agrees with comparing trees or printed
   forms; where it could disagree it only calls a subprogram changed,
   which re-proves it and never carries a stale verdict. *)
let diff ~old_o ~new_o =
  let old_ix = index old_o and new_ix = index new_o in
  let subs o f = List.filter_map (fun e -> if e.ol_kind = K_sub then f e else None) o in
  let of_old =
    subs old_o (fun e ->
        Some
          ( e.ol_name,
            match Hashtbl.find_opt new_ix (K_sub, e.ol_name) with
            | None -> Removed
            | Some e' ->
                if String.equal e.ol_digest e'.ol_digest then Unchanged
                else if not (String.equal e.ol_iface e'.ol_iface) then Sig_or_spec_changed
                else Body_changed ))
  in
  let added =
    subs new_o (fun e ->
        if Hashtbl.mem old_ix (K_sub, e.ol_name) then None else Some (e.ol_name, Added))
  in
  (* a program-level name resolves to its type, else its constant, else
     its global *)
  let resolve ix n =
    List.find_map (fun k -> Hashtbl.find_opt ix (k, n)) [ K_type; K_const; K_var ]
  in
  let decls o f = List.filter_map (fun e -> if e.ol_kind = K_sub then None else f e) o in
  let changed_or_removed =
    decls old_o (fun e ->
        match resolve new_ix e.ol_name with
        | Some e' when String.equal e'.ol_digest e.ol_digest -> None
        | _ -> Some e.ol_name)
  in
  let added_decls =
    decls new_o (fun e -> if resolve old_ix e.ol_name = None then Some e.ol_name else None)
  in
  {
    sd_subs = of_old @ added;
    sd_decls = List.sort_uniq compare (changed_or_removed @ added_decls);
  }

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
