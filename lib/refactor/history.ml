(* Refactoring history (§5.2): "removing a transformation is made possible
   by recording the software's state prior to the application of each
   transformation".  The history records every applied step with the
   program before and after and, once certified, its certificate, and
   supports rollback. *)

open Minispark

type step = {
  st_index : int;
  st_name : string;
  st_category : Transform.category;
  st_before : Ast.program;
  st_env_before : Typecheck.env;
      (** the checked environment of [st_before]; undo restores it without
          a full re-typecheck *)
  st_after : Ast.program;
  st_env_after : Typecheck.env;
  st_claim : Transform.claim option;
  st_certificate : Certify.certificate option;
}

type t = {
  mutable steps : step list;  (** newest first *)
  mutable current : Typecheck.env * Ast.program;
  mutable cert_stats : Certify.stats;
  mutable certifying : Certify.session option;  (** see {!run_certified} *)
  mutable fed : step list;  (** the steps fed to it, newest first *)
}

let create env program =
  { steps = []; current = (env, program); cert_stats = Certify.zero_stats;
    certifying = None; fed = [] }

let current h = h.current
let step_count h = List.length h.steps
let steps h = List.rev h.steps

(* Apply and record one step: the transformation's own applicability
   checks, then the re-typecheck. *)
let apply_step h (tr : Transform.t) =
  let env, program = h.current in
  let span =
    Telemetry.start_span ~cat:Telemetry.cat_transform
      ~attrs:[ ("category", Telemetry.S (Transform.category_name tr.Transform.tr_category)) ]
      tr.Transform.tr_name
  in
  let env', program', claim =
    try Transform.apply tr env program
    with e ->
      Telemetry.finish_span span ~attrs:[ ("outcome", Telemetry.S "rejected") ];
      raise e
  in
  Telemetry.count "transforms_applied";
  Telemetry.finish_span span ~attrs:[ ("outcome", Telemetry.S "applied") ];
  let step =
    {
      st_index = List.length h.steps;
      st_name = tr.Transform.tr_name;
      st_category = tr.Transform.tr_category;
      st_before = program;
      st_env_before = env;
      st_after = program';
      st_env_after = env';
      st_claim = claim;
      st_certificate = None;
    }
  in
  h.steps <- step :: h.steps;
  h.current <- (env', program');
  step

let as_certify_step s =
  { Certify.sp_name = s.st_name;
    sp_before = (s.st_env_before, s.st_before);
    sp_after = (s.st_env_after, s.st_after);
    sp_claim = s.st_claim }

(* Record the results in step order up to the first refutation, then cut
   the history back to that step's pre-image and raise; later steps'
   results are dropped, as if they had never been certified.  A step
   undone since it was fed is no longer in the history and keeps no
   result. *)
let settle h fed results =
  let certs = Hashtbl.create 64 in
  let rec record = function
    | [] -> None
    | (s, _) :: rest when not (List.memq s h.steps) -> record rest
    | (s, (cert, stats)) :: rest -> (
        h.cert_stats <- Certify.add_stats h.cert_stats stats;
        if Telemetry.enabled () then begin
          Telemetry.count "steps_certified";
          Telemetry.instant ~cat:Telemetry.cat_transform "step-certified"
            ~attrs:
              [ ("step", Telemetry.S s.st_name);
                ("certificate", Telemetry.S (Certify.describe cert)) ]
        end;
        match cert with
        | Certify.Refuted cx -> Some (s, cx)
        | Certify.Certified _ | Certify.Unknown _ ->
            Hashtbl.replace certs s.st_index cert;
            record rest)
  in
  let refuted = record (List.combine fed results) in
  let cut = match refuted with Some (s, _) -> s.st_index | None -> max_int in
  h.steps <-
    List.filter_map
      (fun s ->
        if s.st_index >= cut then None
        else
          match Hashtbl.find_opt certs s.st_index with
          | Some c -> Some { s with st_certificate = Some c }
          | None -> Some s)
      h.steps;
  match refuted with
  | None -> ()
  | Some (s, cx) ->
      h.current <- (s.st_env_before, s.st_before);
      raise (Certify.Refutation { rf_step = s.st_name; rf_cx = cx })

let feed h s =
  Option.iter
    (fun session ->
      Certify.add session (as_certify_step s);
      h.fed <- s :: h.fed)
    h.certifying

let run_certified cfg h script =
  match h.certifying with
  | Some _ -> script () (* the running certification takes these steps too *)
  | None ->
      h.certifying <- Some (Certify.start cfg);
      h.fed <- [];
      let finish () =
        let session = Option.get h.certifying and fed = List.rev h.fed in
        h.certifying <- None;
        h.fed <- [];
        settle h fed (Certify.finish session)
      in
      (match
         (* the steps recorded before, then each step as [apply] records it *)
         List.iter (fun s -> if s.st_certificate = None then feed h s) (steps h);
         script ()
       with
      | r ->
          finish ();
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt)

let apply ?certify:cfg h tr =
  let apply () = apply_step h tr in
  let record () =
    let s =
      if not (Telemetry.enabled ()) then apply ()
      else
        (* published for a rejected step too *)
        let m0 = Equivalence.memo_readings () in
        Fun.protect apply ~finally:(fun () ->
            Telemetry.count_memos
              (List.map2
                 (fun (name, later) (_, earlier) -> (name, Memo.diff later earlier))
                 (Equivalence.memo_readings ()) m0))
    in
    (* outside the window above: certification publishes its own memo use *)
    feed h s;
    s
  in
  match cfg with
  | None -> record ()
  | Some cfg ->
      ignore (run_certified cfg h record);
      List.hd h.steps

(** Roll back the most recent step. *)
let undo h =
  match h.steps with
  | [] -> invalid_arg "History.undo: empty history"
  | step :: rest ->
      h.steps <- rest;
      (* the pre-image and its environment were recorded when the step was
         applied; re-checking them here would be pure redundancy *)
      h.current <- (step.st_env_before, step.st_before);
      step

let category_counts h =
  let tally = Hashtbl.create 11 in
  List.iter
    (fun s ->
      let k = s.st_category in
      Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
    h.steps;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let pp_summary ppf h =
  Fmt.pf ppf "@[<v>%d transformations applied:@," (step_count h);
  List.iter
    (fun (cat, n) -> Fmt.pf ppf "  %-55s %d@," (Transform.category_name cat) n)
    (category_counts h);
  Fmt.pf ppf "@]"

let certificates h =
  List.filter_map
    (fun s ->
      Option.map (fun c -> (s.st_index, s.st_name, c)) s.st_certificate)
    (steps h)

let certification_stats h = h.cert_stats
