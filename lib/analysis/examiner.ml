module F = Logic.Formula
module J = Telemetry.Json

type t = {
  ex_flow : Diag.t list;
  ex_amen : Diag.t list;
  ex_vcs_total : int;
  ex_vcs_discharged : int;
  ex_discharged : (string * string) list;
  ex_notes : string list;
}

let analyze ?(vcs = false) ?budget env program =
  let ex_flow = Flow.check program in
  let ex_amen = Amenability.check ~flow:ex_flow program in
  if not vcs then
    {
      ex_flow;
      ex_amen;
      ex_vcs_total = 0;
      ex_vcs_discharged = 0;
      ex_discharged = [];
      ex_notes = [];
    }
  else
    let report = Vcgen.generate ?budget env program in
    let exn_free =
      List.filter
        (fun (vc : F.vc) -> Discharge.attempted_kind vc.F.vc_kind)
        (Vcgen.all_vcs report)
    in
    let discharged =
      List.filter_map
        (fun (vc : F.vc) ->
          if Discharge.vc_discharged vc then Some (vc.F.vc_sub, vc.F.vc_name)
          else None)
        exn_free
    in
    let notes =
      match report.Vcgen.r_infeasible with
      | Some why ->
          [
            Printf.sprintf
              "VC generation infeasible (%s): the program is not amenable to \
               proof in this form (cf. paper §6.2.2); interval discharge \
               covers only the subprograms whose VCs were generated"
              why;
          ]
      | None -> []
    in
    {
      ex_flow;
      ex_amen;
      ex_vcs_total = List.length exn_free;
      ex_vcs_discharged = List.length discharged;
      ex_discharged = discharged;
      ex_notes = notes;
    }

let errors t = Diag.count Diag.Error (t.ex_flow @ t.ex_amen)
let diags t = t.ex_flow @ t.ex_amen

let to_json t =
  J.Obj
    [
      ("flow", J.List (List.map Diag.to_json t.ex_flow));
      ("amenability", J.List (List.map Diag.to_json t.ex_amen));
      ( "vcs",
        J.Obj
          [
            ("exception_freedom", J.Int t.ex_vcs_total);
            ("discharged", J.Int t.ex_vcs_discharged);
            ( "discharged_names",
              J.List
                (List.map
                   (fun (sub, name) ->
                     J.Obj [ ("sub", J.String sub); ("vc", J.String name) ])
                   t.ex_discharged) );
          ] );
      ("notes", J.List (List.map (fun n -> J.String n) t.ex_notes));
      ( "summary",
        J.Obj
          [
            ("errors", J.Int (Diag.count Diag.Error (diags t)));
            ("warnings", J.Int (Diag.count Diag.Warning (diags t)));
            ("infos", J.Int (Diag.count Diag.Info (diags t)));
          ] );
    ]

let pp fmt t =
  let all = diags t in
  if all = [] then Format.fprintf fmt "no diagnostics@."
  else
    List.iter (fun d -> Format.fprintf fmt "%a@." Diag.pp d) all;
  if t.ex_vcs_total > 0 || t.ex_vcs_discharged > 0 then
    Format.fprintf fmt
      "interval analysis discharged %d of %d exception-freedom VC(s)@."
      t.ex_vcs_discharged t.ex_vcs_total;
  List.iter (fun n -> Format.fprintf fmt "note: %s@." n) t.ex_notes;
  Format.fprintf fmt "%d error(s), %d warning(s), %d info(s)@."
    (Diag.count Diag.Error all)
    (Diag.count Diag.Warning all)
    (Diag.count Diag.Info all)
