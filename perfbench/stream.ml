(* Seeded traffic for the serve-edit-stream workload.

   Every input is built through the library's public functions: the clean
   source is the AES refactoring's final program ([Aes_refactoring.run])
   annotated by [Aes_annotations.annotate] and printed by
   [Pretty.program_to_string]; edits go through [Ast.update_sub]; defects
   come from [Defects.Seed.seed_all] on the post-refactoring surfaces that
   [Defects.Experiment] seeds.  The program pool is the same on every
   run; the benchmark seed drives the schedule, so the same seed gives a
   byte-identical stream.  The program under test only sees job specs. *)

open Minispark

type kind = Edit | Defect | Resubmit | Fresh

let kind_name = function
  | Edit -> "edit"
  | Defect -> "defect"
  | Resubmit -> "resubmit"
  | Fresh -> "fresh"

let kinds = [ Edit; Defect; Resubmit; Fresh ]

(* Why each kind is in the mix:
   - Edit: a user iterating on a file.  One subprogram changes and the
     job names the session's last verified job as its baseline, so parse,
     impact analysis and the carry path do the work and the prover only
     sees the impacted subprogram.
   - Defect: a broken edit (a seeded fault) with a baseline.  The
     impacted VCs no longer hold, the prover spends its whole fuel on them
     and the verdict is conditional: the one kind where proving dominates.
   - Resubmit: the same submission again (a retry, a CI re-run).  The
     daemon answers from its outcome table without queueing or forking.
     Never twice in a row, so dedup stays near its share on every seed.
   - Fresh: an edited file submitted with no baseline (a new client, a
     lost session).  Full VC generation against the shared proof cache,
     no carry.
   The weights (out of 100, in steps of 5) are assumptions, not
   measurements: no traffic record exists to draw them from, and the
   repository's only other
   stream, the acceptance stream behind BENCH_serve.json, is 85%
   duplicates by design.  Edits get half, so the median latency lands on
   the iterating user.  The blended latencies therefore depend on these
   weights; the per-kind medians of a traced run do not.
   Every non-resubmission gets a unique revision comment, so only
   resubmissions can hit the dedup table; the programs themselves come
   from a small pool, which bounds the one-shot references the checker
   needs. *)
let mix = [ (Edit, 50); (Defect, 15); (Resubmit, 20); (Fresh, 15) ]

(* Each session deals its kinds from a shuffled deck of 20 cards that
   holds the mix exactly, and its defects from a deck that holds each
   defect once.  Independent draws let the shares move by a few points
   from seed to seed; the defects differ in cost by an order of
   magnitude, so a few more of the costly one moved the p95 with the seed
   rather than with the code. *)
let kind_deck = List.concat_map (fun (k, w) -> List.init (w / 5) (fun _ -> k)) mix

let n_edits = 6
let n_defects = 4

(* the names [Defects.Experiment]'s post-refactoring variant mutates *)
let refactored_subs =
  [ "encrypt"; "decrypt"; "key_expansion"; "sub_bytes"; "mix_columns";
    "add_round_key" ]

let refactored_ref_pairs =
  [ ("sbox", "inv_sbox"); ("src", "dst"); ("k0", "k1"); ("s", "t") ]

type program = { pg_name : string; pg_source : string }

(* programs.(0) is the clean source, then [n_edits] benign edits, then
   [n_defects] defects *)
type pool = { programs : program array }

let clean = 0
let n_benign = 1 + n_edits
let typechecks src =
  match Typecheck.check (Parser.of_string src) with
  | _ -> true
  | exception _ -> false

let edit_source annotated name =
  Pretty.program_to_string
    (Ast.update_sub annotated name (fun sp ->
         { sp with Ast.sub_body = Ast.Assert (Ast.Bool_lit true) :: sp.Ast.sub_body }))

let shuffled rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec take n = function
  | x :: xs when n > 0 -> x :: take (n - 1) xs
  | _ -> []

(* Fixed rather than drawn from the benchmark seed: which subprograms are
   edited and which defects are seeded changes what every job costs, and
   a pool drawn per run let the seed, not the code, move the latency. *)
let pool_seed = 2009

let build_pool () =
  let rng = Random.State.make [| pool_seed |] in
  let snapshots, _ = Aes.Aes_refactoring.run ~kat_gate:false () in
  let final =
    (List.nth snapshots (List.length snapshots - 1)).Aes.Aes_refactoring.sn_program
  in
  let annotate prog =
    Pretty.program_to_string
      (snd (Typecheck.check (Aes.Aes_annotations.annotate prog)))
  in
  let clean_src = annotate final in
  let annotated = Parser.of_string clean_src in
  (* one edited subprogram per stratum of VC count, so the pool spans
     cheap and costly edits *)
  let vc_count =
    let gen = Vcgen.generate (fst (Typecheck.check annotated)) annotated in
    fun name ->
      match List.find_opt (fun sr -> sr.Vcgen.sr_sub = name) gen.Vcgen.r_subs with
      | Some sr -> List.length sr.Vcgen.sr_vcs
      | None -> 0
  in
  let by_cost =
    List.map (fun (sp : Ast.subprogram) -> sp.Ast.sub_name) (Ast.subprograms annotated)
    |> List.filter (fun name -> typechecks (edit_source annotated name))
    |> List.stable_sort (fun a b -> compare (vc_count a) (vc_count b))
    |> Array.of_list
  in
  let stratum k =
    let n = Array.length by_cost in
    let lo = k * n / n_edits and hi = (k + 1) * n / n_edits in
    Array.to_list (Array.sub by_cost lo (hi - lo))
  in
  let edits =
    List.init n_edits (fun k ->
        let name = List.hd (shuffled rng (stratum k)) in
        { pg_name = "edit:" ^ name; pg_source = edit_source annotated name })
  in
  let defect_seeds = [ Random.State.bits rng; Random.State.bits rng ] in
  let defects =
    List.concat_map
      (fun s ->
        Defects.Seed.seed_all ~seed:s ~subs:refactored_subs
          ~ref_pairs:refactored_ref_pairs final
        |> List.filter (fun (d : Defects.Seed.defect) -> not d.Defects.Seed.d_benign)
        |> List.map (fun d -> (s, d)))
      defect_seeds
    |> List.filter_map (fun (s, (d : Defects.Seed.defect)) ->
           match annotate (d.Defects.Seed.d_apply final) with
           | src when src <> clean_src ->
               Some
                 { pg_name =
                     Printf.sprintf "defect:%d/%d:%s:%s" s d.Defects.Seed.d_id
                       (Defects.Seed.defect_type_name d.Defects.Seed.d_type)
                       d.Defects.Seed.d_sub;
                   pg_source = src }
           | _ -> None
           | exception _ -> None)
    |> List.sort_uniq (fun a b -> compare a.pg_source b.pg_source)
    |> shuffled rng
    |> take n_defects
  in
  if List.length edits <> n_edits || List.length defects <> n_defects then
    failwith "stream: the seeded pool came out short";
  { programs =
      Array.of_list ({ pg_name = "clean"; pg_source = clean_src } :: edits @ defects) }

type job = {
  jb_id : string;
  jb_session : int;
  jb_kind : kind;
  jb_program : int;
  jb_source : string;
  jb_baseline : string option;  (** id of the baseline job *)
}

(* The job every session starts from: the clean source, verified cold
   while the daemon is set up. *)
let clean_job_id = "clean"

type session = {
  ss_index : int;
  ss_rng : Random.State.t;
  mutable ss_step : int;
  mutable ss_current : int;  (** program of the last verified benign job *)
  mutable ss_last : string;  (** that job's id *)
  mutable ss_previous : job option;
  mutable ss_kinds : kind list;  (** what is left of the session's kind deck *)
  mutable ss_defects : int list;  (** and of its defect deck *)
}

let session ~seed i =
  { ss_index = i;
    ss_rng = Random.State.make [| seed; i; 0x5e55 |];
    ss_step = 0;
    ss_current = clean;
    ss_last = clean_job_id;
    ss_previous = None;
    ss_kinds = [];
    ss_defects = [] }

(* a plain comment: the lexer drops it, the dedup digest does not *)
let revision_tag ~session ~step =
  Printf.sprintf "\n-- perfbench session %d revision %d\n" session step

(* The first card of the deck that [allowed] accepts, and the deck
   without it; a fresh shuffle of [full] when the deck is empty. *)
let deal rng full ?(allowed = fun _ -> true) deck =
  let rec pull = function
    | [] -> None
    | c :: rest when allowed c -> Some (c, rest)
    | c :: rest -> Option.map (fun (c', rest') -> (c', c :: rest')) (pull rest)
  in
  pull (if deck = [] then shuffled rng full else deck)

(* A resubmission needs a previous job that is not itself one. *)
let next_kind s =
  let allowed k =
    match (k, s.ss_previous) with
    | Resubmit, (None | Some { jb_kind = Resubmit; _ }) -> false
    | _ -> true
  in
  match deal s.ss_rng kind_deck ~allowed s.ss_kinds with
  | Some (k, rest) ->
      s.ss_kinds <- rest;
      k
  | None -> Edit

let next_defect s =
  match deal s.ss_rng (List.init n_defects Fun.id) s.ss_defects with
  | Some (d, rest) ->
      s.ss_defects <- rest;
      d
  | None -> assert false

let other_benign rng cur =
  let k = Random.State.int rng (n_benign - 1) in
  if k >= cur then k + 1 else k

(** The session's next job, in a closed loop: call it once the previous
    one has its verdict. *)
let next pool s =
  s.ss_step <- s.ss_step + 1;
  let id = Printf.sprintf "s%d-%d" s.ss_index s.ss_step in
  let kind = next_kind s in
  let fresh p baseline =
    { jb_id = id;
      jb_session = s.ss_index;
      jb_kind = kind;
      jb_program = p;
      jb_source =
        pool.programs.(p).pg_source
        ^ revision_tag ~session:s.ss_index ~step:s.ss_step;
      jb_baseline = baseline }
  in
  let job =
    match (kind, s.ss_previous) with
    | Resubmit, Some prev -> { prev with jb_id = id; jb_kind = Resubmit }
    | Defect, _ ->
        fresh (n_benign + next_defect s) (Some s.ss_last)
    | (Edit | Fresh | Resubmit), _ ->
        let x = other_benign s.ss_rng s.ss_current in
        let j = fresh x (if kind = Fresh then None else Some s.ss_last) in
        s.ss_current <- x;
        s.ss_last <- id;
        j
  in
  s.ss_previous <- Some job;
  job

(** The pool and the first [steps] jobs of each of [sessions] sessions,
    as text: one line per program and per job, the sources as digests,
    and the share of each kind. *)
let describe ~seed ~sessions ~steps pool =
  let b = Buffer.create 4096 in
  Printf.bprintf b "seed %d sessions %d steps %d\n" seed sessions steps;
  Array.iteri
    (fun i p ->
      Printf.bprintf b "program %d %s %s\n" i p.pg_name
        (Digest.to_hex (Digest.string p.pg_source)))
    pool.programs;
  let counts = Hashtbl.create 4 in
  for i = 0 to sessions - 1 do
    let s = session ~seed i in
    for _ = 1 to steps do
      let j = next pool s in
      Hashtbl.replace counts j.jb_kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts j.jb_kind));
      Printf.bprintf b "job %s %s program %d baseline %s source %s\n" j.jb_id
        (kind_name j.jb_kind) j.jb_program
        (Option.value ~default:"-" j.jb_baseline)
        (Digest.to_hex (Digest.string j.jb_source))
    done
  done;
  let total = sessions * steps in
  List.iter
    (fun k ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Printf.bprintf b "share %s %d/%d %.3f\n" (kind_name k) n total
        (float_of_int n /. float_of_int (max 1 total)))
    kinds;
  Buffer.contents b
