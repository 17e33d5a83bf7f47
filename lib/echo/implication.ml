(* The implication proof (§6.2.4): the extracted specification implies the
   original specification.

   The proof is organised exactly as the paper describes — as a series of
   lemmas following the specification architecture (architectural and
   direct mapping, §4.1): each matched element of the original
   specification gets a lemma equating it with its extracted counterpart.

   Discharge methods, strongest first:
   - [Exhaustive]: every point of a finite input domain is checked by
     evaluating both specifications — a decision procedure for the
     byte-level algebra (AES is finite-domain);
   - [Sampled]: deterministic random sampling for domains too large to
     enumerate (states, keys), plus the FIPS-197 known-answer vectors for
     the top-level elements;
   - [Structural]: the extracted definition is a composition of
     already-proved elements matching the original's composition. *)

module V = Specl.Seval

type method_ =
  | Exhaustive of int   (** points checked — a finite-domain decision *)
  | Sampled of int      (** deterministic random trials *)
  | Structural          (** congruence over already-proved lemmas *)

type outcome =
  | Holds of method_
  | Fails of string

type lemma = {
  lm_name : string;                  (** e.g. "sub_bytes_lemma" *)
  lm_original : string;              (** element of the original spec *)
  lm_extracted : string;             (** element of the extracted spec *)
  lm_run : unit -> outcome;
}

type result = {
  im_lemmas : (lemma * outcome) list;
  im_total : int;
  im_proved : int;
  im_time : float;
}

(* deterministic xorshift *)
let xorshift seed =
  let state = ref (if seed = 0 then 88172645463325252 else seed) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int

(* ------------------------------------------------------------------ *)
(* lemma builders                                                      *)
(* ------------------------------------------------------------------ *)

(** Both sides applied to every element of a finite domain. *)
let exhaustive ~name ~original ~extracted ~domain ~lhs ~rhs () =
  {
    lm_name = name;
    lm_original = original;
    lm_extracted = extracted;
    lm_run =
      (fun () ->
        let bad =
          List.find_map
            (fun point ->
              match (lhs point, rhs point) with
              | a, b when V.equal a b -> None
              | a, b ->
                  Some
                    (Printf.sprintf "at %s: %s vs %s"
                       (String.concat "," (List.map V.to_string point))
                       (V.to_string a) (V.to_string b))
              | exception V.Error m -> Some m)
            domain
        in
        match bad with
        | None -> Holds (Exhaustive (List.length domain))
        | Some msg -> Fails msg);
  }

(** Both sides applied to [count] deterministically sampled inputs. *)
let sampled ~name ~original ~extracted ~gen ~count ~lhs ~rhs () =
  {
    lm_name = name;
    lm_original = original;
    lm_extracted = extracted;
    lm_run =
      (fun () ->
        let rng = xorshift (Hashtbl.hash name) in
        let rec go k =
          if k >= count then Holds (Sampled count)
          else
            let point = gen rng in
            match (lhs point, rhs point) with
            | a, b when V.equal a b -> go (k + 1)
            | a, b ->
                Fails
                  (Printf.sprintf "at %s: %s vs %s"
                     (String.concat "," (List.map V.to_string point))
                     (V.to_string a) (V.to_string b))
            | exception V.Error m -> Fails m
        in
        go 0);
  }

(** Discharged by congruence: the callers guarantee the premise lemmas are
    in the list before this one. *)
let structural ~name ~original ~extracted ~premises ~check () =
  ignore premises;
  {
    lm_name = name;
    lm_original = original;
    lm_extracted = extracted;
    lm_run = (fun () -> if check () then Holds Structural else Fails "structure mismatch");
  }

(* ------------------------------------------------------------------ *)
(* runner                                                              *)
(* ------------------------------------------------------------------ *)

let empty = { im_lemmas = []; im_total = 0; im_proved = 0; im_time = 0.0 }

(* A lemma body that *raises* (rather than returning [Fails]) must not
   abort the whole suite: the remaining lemmas still carry information.
   The exception is folded into a [Fails] outcome. *)
let run_lemma l =
  match l.lm_run () with
  | o -> o
  | exception Sys.Break -> raise Sys.Break
  | exception e -> Fails ("lemma raised: " ^ Printexc.to_string e)

(* a lemma on a farm domain: its outcome, with its use of that domain's
   application memo *)
let run_job l =
  Memo.measure
    (fun () -> [ ("spec_memo", V.memo_stats ()) ])
    (fun () ->
      let span = Telemetry.start_span ~cat:Telemetry.cat_lemma l.lm_name in
      let o = run_lemma l in
      (if Telemetry.enabled () then
         match o with
         | Holds _ -> Telemetry.count "lemmas_proved"
         | Fails _ -> Telemetry.count "lemmas_failed");
      Telemetry.finish_span span
        ~attrs:
          [
            ( "outcome",
              Telemetry.S (match o with Holds _ -> "holds" | Fails _ -> "fails") );
          ];
      o)

let run ?(jobs = 1) (lemmas : lemma list) : result =
  let t0 = Logic.Clock.now () in
  let results, _ =
    Farm.Pool.run ~jobs ~priority:(fun _ -> 0) ~f:run_job (Array.of_list lemmas)
  in
  if Telemetry.enabled () then
    Telemetry.count_memos (Memo.sum (Array.to_list (Array.map snd results)));
  let outcomes = List.combine lemmas (Array.to_list (Array.map fst results)) in
  let proved =
    List.length (List.filter (fun (_, o) -> match o with Holds _ -> true | _ -> false) outcomes)
  in
  {
    im_lemmas = outcomes;
    im_total = List.length lemmas;
    im_proved = proved;
    im_time = Logic.Clock.elapsed t0;
  }

let pp_method ppf = function
  | Exhaustive n -> Fmt.pf ppf "exhaustive x%d" n
  | Sampled n -> Fmt.pf ppf "sampled x%d" n
  | Structural -> Fmt.string ppf "structural"

let pp_result ppf r =
  Fmt.pf ppf "@[<v>implication proof: %d/%d lemmas discharged in %.1fs" r.im_proved
    r.im_total r.im_time;
  List.iter
    (fun (l, o) ->
      match o with
      | Holds m -> Fmt.pf ppf "@,  %-28s %s = %s: %a" l.lm_name l.lm_original l.lm_extracted pp_method m
      | Fails msg -> Fmt.pf ppf "@,  %-28s FAILS: %s" l.lm_name msg)
    r.im_lemmas;
  Fmt.pf ppf "@]"
