open Minispark

type reason =
  | R_changed of Semdiff.change
  | R_caller of Ast.ident
  | R_eval_dep of Ast.ident
  | R_decl of Ast.ident
  | R_vc_drift

let reason_name = function
  | R_changed c -> Semdiff.change_name c
  | R_caller s -> "calls-changed-spec:" ^ s
  | R_eval_dep s -> "evaluates:" ^ s
  | R_decl d -> "references-changed-decl:" ^ d
  | R_vc_drift -> "vc-drift"

type plan = {
  pl_diff : Semdiff.t;
  pl_graph : Depgraph.t;
  pl_impacted : (Ast.ident * reason list) list;
  pl_carried : Ast.ident list;
}

module SS = Set.Make (String)
module SM = Map.Make (String)

let finish diff graph impacted all_subs =
  let impacted_names =
    SM.fold (fun n _ s -> SS.add n s) impacted SS.empty
  in
  {
    pl_diff = diff;
    pl_graph = graph;
    pl_impacted =
      SM.bindings impacted |> List.map (fun (n, rs) -> (n, List.rev rs));
    pl_carried =
      List.filter (fun s -> not (SS.mem s impacted_names)) all_subs
      |> List.sort compare;
  }

let compute ~old_o ~new_o new_p =
  let diff = Semdiff.diff ~old_o ~new_o in
  let graph = Depgraph.build new_p in
  let all_subs = Depgraph.subs graph in
  let changed = SS.of_list (Semdiff.changed_subs diff) in
  let sig_changed = SS.of_list (Semdiff.sig_changed_subs diff) in
  let changed_decls = SS.of_list diff.Semdiff.sd_decls in
  let impacted = ref SM.empty in
  let add name reason =
    impacted :=
      SM.update name
        (function None -> Some [ reason ] | Some rs -> Some (reason :: rs))
        !impacted
  in
  (* 1. Edited subprograms re-prove (removed ones no longer have VCs). *)
  List.iter
    (fun (n, c) ->
      if c <> Semdiff.Unchanged && c <> Semdiff.Removed then add n (R_changed c))
    diff.Semdiff.sd_subs;
  (* 2. Signature/spec changes escalate to direct callers: their VCs
     embed the callee's contract. *)
  SS.iter
    (fun callee ->
      List.iter
        (fun caller ->
          if List.mem caller all_subs then add caller (R_caller callee))
        (Depgraph.direct_callers graph callee))
    sig_changed;
  (* 3. Evaluation frontier: the prover executes function bodies, so a
     body change anywhere a subprogram's VCs can reach by evaluation
     invalidates its verdicts. *)
  List.iter
    (fun s ->
      List.iter
        (fun d -> if SS.mem d changed then add s (R_eval_dep d))
        (Depgraph.eval_deps graph s))
    all_subs;
  (* 4. Changed declarations: constants and globals feed both the VC text
     and the evaluation environment; types alter bounds obligations. *)
  if not (SS.is_empty changed_decls) then
    List.iter
      (fun s ->
        let refs =
          Depgraph.decl_closure graph (s :: Depgraph.eval_deps graph s)
        in
        List.iter
          (fun d -> if SS.mem d changed_decls then add s (R_decl d))
          refs)
      all_subs;
  finish diff graph !impacted all_subs

let refine plan ~baseline ~current =
  let norm digests = List.sort compare digests in
  let impacted =
    List.fold_left
      (fun m (n, rs) -> SM.add n rs m)
      SM.empty plan.pl_impacted
  in
  let impacted = ref impacted in
  List.iter
    (fun s ->
      let drifted =
        match (List.assoc_opt s baseline, List.assoc_opt s current) with
        | Some b, Some c -> norm b <> norm c
        | None, None -> false
        | _ -> true
      in
      if drifted then
        impacted :=
          SM.update s
            (function
              | None -> Some [ R_vc_drift ]
              | Some rs -> Some (rs @ [ R_vc_drift ]))
            !impacted)
    plan.pl_carried;
  finish plan.pl_diff plan.pl_graph !impacted (Depgraph.subs plan.pl_graph)

let impacted_subs plan = List.map fst plan.pl_impacted
let is_impacted plan name = List.mem_assoc name plan.pl_impacted

let pp ppf plan =
  let total =
    List.length plan.pl_impacted + List.length plan.pl_carried
  in
  Fmt.pf ppf "@[<v>impact: %d of %d subprograms re-prove@,"
    (List.length plan.pl_impacted) total;
  List.iter
    (fun (n, rs) ->
      Fmt.pf ppf "  %-28s %a@," n
        Fmt.(list ~sep:(any ", ") (fun ppf r -> string ppf (reason_name r)))
        rs)
    plan.pl_impacted;
  if plan.pl_carried <> [] then
    Fmt.pf ppf "  carried: %a@,"
      Fmt.(list ~sep:(any ", ") string)
      plan.pl_carried;
  Fmt.pf ppf "@]"

let to_json plan =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"diff\":";
  Buffer.add_string b (Semdiff.to_json plan.pl_diff);
  Buffer.add_string b ",\"impacted\":[";
  List.iteri
    (fun i (n, rs) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"name\":%S,\"reasons\":[" n);
      List.iteri
        (fun j r ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S" (reason_name r)))
        rs;
      Buffer.add_string b "]}")
    plan.pl_impacted;
  Buffer.add_string b "],\"carried\":[";
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%S" n))
    plan.pl_carried;
  Buffer.add_string b "]}";
  Buffer.contents b
