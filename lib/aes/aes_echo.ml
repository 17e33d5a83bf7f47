(* The §6 case study packaged as an Echo pipeline instance: the optimized
   AES, its 14-block refactoring script, the annotation set, the FIPS-197
   specification theory, and the implication lemma suite. *)

(* Fig. 2(f) as telemetry: after each refactoring block, how much of the
   original specification's structure the program skeleton already
   matches.  Emitted as [match_ratio] instants so the trace and the
   report show the evolution, not just the final number. *)
let emit_match_evolution snapshots =
  if Telemetry.enabled () then
    List.iter
      (fun s ->
        match Extract.skeleton s.Aes_refactoring.sn_program with
        | skeleton ->
            let r =
              Specl.Match_ratio.compare ~synonyms:Aes_implication.synonyms
                ~original:Aes_spec.theory ~extracted:skeleton ()
            in
            Telemetry.instant "match_ratio"
              ~attrs:
                [
                  ( "block",
                    Telemetry.S
                      (Printf.sprintf "%02d %s" s.Aes_refactoring.sn_block
                         s.Aes_refactoring.sn_title) );
                  ("ratio", Telemetry.F r.Specl.Match_ratio.mr_ratio);
                ]
        | exception _ -> ())
      snapshots

let case_study : Echo.Pipeline.case_study =
  {
    Echo.Pipeline.cs_name = "AES (FIPS-197)";
    cs_refactor =
      (fun ?certify () ->
        let snapshots, history = Aes_refactoring.run ?certify () in
        emit_match_evolution snapshots;
        ( List.map
            (fun s ->
              (s.Aes_refactoring.sn_env, s.Aes_refactoring.sn_program))
            snapshots,
          history ));
    cs_annotate = Aes_annotations.annotate;
    cs_original_spec = Aes_spec.theory;
    cs_synonyms = Aes_implication.synonyms;
    cs_lemmas = Aes_implication.lemmas;
  }
