(* Refactoring history (§5.2): "removing a transformation is made possible
   by recording the software's state prior to the application of each
   transformation".  The history records every applied step with the
   program before and after and the equivalence evidence gathered, and
   supports rollback. *)

open Minispark

type evidence =
  | Ev_typecheck                 (** transformed program re-type-checked *)
  | Ev_differential of int       (** differential trials/points passed *)
  | Ev_exhaustive of int         (** exhaustive finite-domain points checked *)

let pp_evidence ppf = function
  | Ev_typecheck -> Fmt.string ppf "type-checked"
  | Ev_differential n -> Fmt.pf ppf "differential x%d" n
  | Ev_exhaustive n -> Fmt.pf ppf "exhaustive x%d" n

type step = {
  st_index : int;
  st_name : string;
  st_category : Transform.category;
  st_before : Ast.program;
  st_env_before : Typecheck.env;
      (** the checked environment of [st_before]; undo restores it without
          a full re-typecheck *)
  st_after : Ast.program;
  st_evidence : evidence list;
  st_certificate : Certify.certificate option;
}

type t = {
  mutable steps : step list;  (** newest first *)
  mutable current : Typecheck.env * Ast.program;
  mutable cert_stats : Certify.stats;
}

let create env program =
  { steps = []; current = (env, program); cert_stats = Certify.zero_stats }

let current h = h.current
let step_count h = List.length h.steps
let steps h = List.rev h.steps

let apply_step ?(entries = []) ?(trials = 24) ?certify h (tr : Transform.t) =
  let env, program = h.current in
  let span =
    Telemetry.start_span ~cat:Telemetry.cat_transform
      ~attrs:[ ("category", Telemetry.S (Transform.category_name tr.Transform.tr_category)) ]
      tr.Transform.tr_name
  in
  let finish_rejected e =
    Telemetry.finish_span span ~attrs:[ ("outcome", Telemetry.S "rejected") ];
    raise e
  in
  let env', program' =
    try Transform.apply tr env program with e -> finish_rejected e
  in
  let evidence = ref [ Ev_typecheck ] in
  let certificate = ref None in
  (match certify with
  | Some cfg ->
      (* certification subsumes the legacy entry-point differential: the
         oracle targets the touched subprograms directly and falls back to
         the entry points itself *)
      let cfg =
        if cfg.Certify.cf_entries = [] then { cfg with Certify.cf_entries = entries }
        else cfg
      in
      let cert, cstats =
        Telemetry.with_span ~cat:Telemetry.cat_transform
          ~attrs:[ ("step", Telemetry.S tr.Transform.tr_name) ]
          "certify"
          (fun () ->
            Certify.certify cfg ~step_name:tr.Transform.tr_name
              ~before:(env, program) ~after:(env', program'))
      in
      h.cert_stats <- Certify.add_stats h.cert_stats cstats;
      if Telemetry.enabled () then begin
        Telemetry.count "steps_certified";
        Telemetry.annotate
          [ ("certificate", Telemetry.S (Certify.describe cert)) ]
      end;
      (match cert with
      | Certify.Refuted cx ->
          Telemetry.finish_span span
            ~attrs:[ ("outcome", Telemetry.S "refuted") ];
          raise
            (Certify.Refutation { rf_step = tr.Transform.tr_name; rf_cx = cx })
      | Certify.Certified _ | Certify.Unknown _ -> ());
      certificate := Some cert
  | None -> (
      match entries with
      | [] -> ()
      | entries -> (
          match Equivalence.check_program ~trials ~entries env program env' program' with
          | Equivalence.Equivalent n -> evidence := Ev_differential n :: !evidence
          | Equivalence.Counterexample msg -> (
              try
                Transform.reject "%s is not semantics-preserving: %s" tr.Transform.tr_name msg
              with e -> finish_rejected e))));
  (if not (Telemetry.enabled ()) then Telemetry.finish_span span
   else
     let m = Metrics.analyze program' in
     Telemetry.count "transforms_applied";
     Telemetry.finish_span span
       ~attrs:
         [
           ("outcome", Telemetry.S "applied");
           ("lines_after", Telemetry.I m.Metrics.element.Metrics.em_lines);
           ( "avg_cyclomatic_after",
             Telemetry.F m.Metrics.complexity.Metrics.cm_avg_cyclomatic );
         ]);
  let step =
    {
      st_index = List.length h.steps;
      st_name = tr.Transform.tr_name;
      st_category = tr.Transform.tr_category;
      st_before = program;
      st_env_before = env;
      st_after = program';
      st_evidence = !evidence;
      st_certificate = !certificate;
    }
  in
  h.steps <- step :: h.steps;
  h.current <- (env', program');
  step

(** Apply a transformation, with differential-equivalence evidence over the
    given entry points, and record the step.  Raises
    [Transform.Not_applicable] (state unchanged) on rejection. *)
let apply ?entries ?trials ?certify h tr =
  if not (Telemetry.enabled ()) then apply_step ?entries ?trials ?certify h tr
  else
    let m0 = Equivalence.run_memo_stats ()
    and i0 = Interp.memo_stats ()
    and s0 = Share.memo_stats () in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (name, by) -> Telemetry.count ~by name)
          (Memo.counters "oracle_memo"
             (Memo.diff (Equivalence.run_memo_stats ()) m0)
          @ Memo.counters "interp_memo" (Memo.diff (Interp.memo_stats ()) i0)
          @ List.concat_map
              (fun (name, s) -> Memo.counters name (Memo.diff s (List.assoc name s0)))
              (Share.memo_stats ())))
      (fun () -> apply_step ?entries ?trials ?certify h tr)

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
