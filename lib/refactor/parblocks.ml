(* Parallel application of independent transformation blocks.

   A refactoring script is a sequence of blocks; consecutive blocks whose
   declared footprints are disjoint commute, so their (expensive) evidence
   gathering — differential oracles, certification — can run on separate
   domains from the shared pre-group state.  The workers' steps are then
   merged back in block order as declaration-level deltas, each re-checked
   incrementally, so the main history's programs, evidence, certificates
   and KAT verdicts are bit-identical to a sequential run of the same
   blocks (the disjointness contract makes every worker's touched
   declarations independent of the other workers' edits; the benchmark's
   identity gate asserts the equality on every run). *)

open Minispark

type spec = {
  pb_index : int;
  pb_title : string;
  pb_touches : string list;
  pb_reads : string list;
  pb_run : History.t -> unit;
}

let wildcard = "*"

let overlaps xs ys =
  List.mem wildcard xs || List.mem wildcard ys
  || List.exists (fun x -> List.mem x ys) xs

(* blocks conflict when either writes what the other reads or writes *)
let conflict a b =
  overlaps a.pb_touches b.pb_touches
  || overlaps a.pb_touches b.pb_reads
  || overlaps a.pb_reads b.pb_touches

let plan specs =
  let rec go groups current = function
    | [] -> List.rev (List.rev current :: groups)
    | s :: rest ->
        if List.for_all (fun c -> not (conflict c s)) current then
          go groups (s :: current) rest
        else go (List.rev current :: groups) [ s ] rest
  in
  match specs with [] -> [] | s :: rest -> go [] [ s ] rest

(* Graft one worker step onto the merged state: the step's declaration
   delta (removed / replaced / added names) is applied to the current
   merged program, re-checked incrementally, and recorded with the
   worker's evidence and certificate.  Positions of added declarations
   are resolved against the worker's after-list: each is inserted before
   the first declaration following it there that exists in the merged
   list (appended when none does). *)
let graft_step h (ws : History.step) =
  let env_m, m = History.current h in
  let before = ws.History.st_before.Ast.prog_decls in
  let after = ws.History.st_after.Ast.prog_decls in
  let before_names = List.map Ast.decl_name before in
  let after_names = List.map Ast.decl_name after in
  let removed =
    List.filter (fun n -> not (List.mem n after_names)) before_names
  in
  let changed =
    List.filter_map
      (fun d ->
        let n = Ast.decl_name d in
        match
          List.find_opt (fun d0 -> String.equal (Ast.decl_name d0) n) before
        with
        (* physical identity is only a fast path: a transform that runs a
           full re-check (replace_body) can rebuild untouched declarations
           physically anew, and grafting those would clobber other
           workers' merged edits with the group-base content *)
        | Some d0 -> if d0 == d || d0 = d then None else Some (n, d)
        | None -> None)
      after
  in
  let added =
    List.filter (fun d -> not (List.mem (Ast.decl_name d) before_names)) after
  in
  let decls =
    List.filter_map
      (fun d ->
        let n = Ast.decl_name d in
        if List.mem n removed then None
        else
          match List.assoc_opt n changed with
          | Some d' -> Some d'
          | None -> Some d)
      m.Ast.prog_decls
  in
  let insert decls (d : Ast.decl) =
    let n = Ast.decl_name d in
    let rec names_following = function
      | [] -> []
      | d0 :: rest when String.equal (Ast.decl_name d0) n -> List.map Ast.decl_name rest
      | _ :: rest -> names_following rest
    in
    let present = List.map Ast.decl_name decls in
    match
      List.find_opt (fun a -> List.mem a present) (names_following after)
    with
    | None -> decls @ [ d ]
    | Some anchor ->
        let rec go = function
          | [] -> [ d ]
          | d0 :: rest when String.equal (Ast.decl_name d0) anchor -> d :: d0 :: rest
          | d0 :: rest -> d0 :: go rest
        in
        go decls
  in
  (* fold from the right so consecutive additions keep their relative
     order: a later addition inserted first becomes the earlier one's
     anchor *)
  let decls = List.fold_right (fun d acc -> insert acc d) added decls in
  let merged = { m with Ast.prog_decls = decls } in
  let env', checked = Typecheck.check_incremental ~baseline:(env_m, m) merged in
  let step =
    { ws with History.st_before = m; st_env_before = env_m; st_after = checked }
  in
  ignore (History.record h ~env_after:env' step)

let run ?jobs ?(on_block = fun _ _ -> ()) h specs =
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | [ spec ] ->
          spec.pb_run h;
          on_block spec h
      | specs ->
          let env0, prog0 = History.current h in
          let results, _stats =
            Farm.Pool.run ?jobs
              ~priority:(fun s -> -s.pb_index)
              ~f:(fun s ->
                let hw = History.create env0 prog0 in
                s.pb_run hw;
                (s, History.steps hw, History.certification_stats hw))
              (Array.of_list specs)
          in
          Array.iter
            (fun (s, steps, cstats) ->
              List.iter (graft_step h) steps;
              History.add_cert_stats h cstats;
              on_block s h)
            results)
    (plan specs)
