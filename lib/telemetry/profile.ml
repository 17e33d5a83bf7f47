(* Post-hoc attribution over finished Telemetry events.

   The collector records what happened; this module explains where the
   time went.  Everything here is pure analysis over an event list — no
   collector state, no clock reads — so the same functions serve events
   read back from a run directory ([echo_cli profile]) and events taken
   live from the collector before it is disabled.

   Span lists become a forest keyed on [sp_parent].  Spans whose parent
   id is absent from the trace are treated as roots rather than dropped:
   a [--focus] slice keeps a subtree whose root still names its
   (discarded) parent, and a truncated trace must still aggregate.

   Self time is [dur − union(child intervals ∩ own interval)], not
   [dur − Σ child dur]: farm workers run concurrently under one dispatch
   span, so summing child durations would drive the parent's self time
   negative.  The same interval union powers the critical path — children
   are grouped into maximal overlapping clusters, sequential clusters
   add, and within a cluster only the longest chain counts. *)

type node = {
  n_id : int;
  n_parent : int;
  n_name : string;
  n_cat : string;
  n_start : float;
  n_dur : float;
  n_attrs : Telemetry.attrs;
}

let attr_float attrs k =
  match List.assoc_opt k attrs with
  | Some (Telemetry.F v) -> Some v
  | Some (Telemetry.I n) -> Some (float_of_int n)
  | _ -> None

let attr_int attrs k =
  match List.assoc_opt k attrs with
  | Some (Telemetry.I n) -> Some n
  | _ -> None

let attr_string attrs k =
  match List.assoc_opt k attrs with Some (Telemetry.S s) -> Some s | _ -> None

let nodes_of evs =
  List.filter_map
    (function
      | Telemetry.Span s ->
          Some
            {
              n_id = s.sp_id;
              n_parent = s.sp_parent;
              n_name = s.sp_name;
              n_cat = s.sp_cat;
              n_start = s.sp_start;
              n_dur = s.sp_dur;
              n_attrs = s.sp_attrs;
            }
      | Telemetry.Instant _ -> None)
    evs

(* deterministic sibling order: by start time, ties by allocation id *)
let by_start a b =
  match Float.compare a.n_start b.n_start with
  | 0 -> compare a.n_id b.n_id
  | c -> c

type forest = {
  f_nodes : node list;
  f_roots : node list;                       (* sorted by (start, id) *)
  f_children : (int, node list) Hashtbl.t;   (* sorted by (start, id) *)
}

let forest evs =
  let nodes = nodes_of evs in
  let ids = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace ids n.n_id ()) nodes;
  let children = Hashtbl.create 256 in
  let roots = ref [] in
  List.iter
    (fun n ->
      if n.n_parent <> 0 && Hashtbl.mem ids n.n_parent then
        Hashtbl.replace children n.n_parent
          (n :: Option.value ~default:[] (Hashtbl.find_opt children n.n_parent))
      else roots := n :: !roots)
    nodes;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace children k (List.sort by_start v))
    (Hashtbl.copy children);
  { f_nodes = nodes; f_roots = List.sort by_start !roots; f_children = children }

let children_of f id = Option.value ~default:[] (Hashtbl.find_opt f.f_children id)

(* total length of the union of [(lo, hi)] intervals, sorted by [lo] *)
let union_length intervals =
  fst
    (List.fold_left
       (fun (acc, hi) (a, b) ->
         if a >= hi then (acc +. (b -. a), b)
         else if b > hi then (acc +. (b -. hi), b)
         else (acc, hi))
       (0.0, neg_infinity) intervals)

(* children intervals clipped to the parent's own interval *)
let clipped lo hi kids =
  List.filter_map
    (fun k ->
      let a = Float.max lo k.n_start and b = Float.min hi (k.n_start +. k.n_dur) in
      if b > a then Some (a, b) else None)
    kids

let self_time f n =
  let lo = n.n_start and hi = n.n_start +. n.n_dur in
  Float.max 0.0 (n.n_dur -. union_length (clipped lo hi (children_of f n.n_id)))

(* ------------------------------------------------------------------ *)
(* Cost centers                                                        *)
(* ------------------------------------------------------------------ *)

type cost_center = {
  cc_path : string list;
  cc_cat : string;
  cc_count : int;
  cc_total : float;
  cc_self : float;
  cc_gc_minor_w : float;
  cc_gc_major_w : float;
}

let cost_centers evs =
  let f = forest evs in
  let tbl = Hashtbl.create 128 in
  let order = ref [] in
  let rec walk rev_path n =
    let rev_path = n.n_name :: rev_path in
    let key = String.concat "\x1f" rev_path ^ "\x1e" ^ n.n_cat in
    let self = self_time f n in
    let minor = Option.value ~default:0.0 (attr_float n.n_attrs "gc_minor_w") in
    let major = Option.value ~default:0.0 (attr_float n.n_attrs "gc_major_w") in
    (match Hashtbl.find_opt tbl key with
    | Some cc ->
        Hashtbl.replace tbl key
          {
            cc with
            cc_count = cc.cc_count + 1;
            cc_total = cc.cc_total +. n.n_dur;
            cc_self = cc.cc_self +. self;
            cc_gc_minor_w = cc.cc_gc_minor_w +. minor;
            cc_gc_major_w = cc.cc_gc_major_w +. major;
          }
    | None ->
        order := key :: !order;
        Hashtbl.add tbl key
          {
            cc_path = List.rev rev_path;
            cc_cat = n.n_cat;
            cc_count = 1;
            cc_total = n.n_dur;
            cc_self = self;
            cc_gc_minor_w = minor;
            cc_gc_major_w = major;
          });
    List.iter (walk rev_path) (children_of f n.n_id)
  in
  List.iter (walk []) f.f_roots;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order
  |> List.stable_sort (fun a b ->
         match Float.compare b.cc_self a.cc_self with
         | 0 -> (
             match Float.compare b.cc_total a.cc_total with
             | 0 -> compare a.cc_path b.cc_path
             | c -> c)
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

type critical_path = {
  cp_frames : (string * float) list;
  cp_seconds : float;
  cp_total_work : float;
  cp_workers : int;
  cp_efficiency : float;
}

(* maximal groups of time-overlapping siblings; within a group the spans
   ran concurrently (only the longest chain counts), across groups they
   ran sequentially (chains add) *)
let clusters kids =
  match kids with
  | [] -> []
  | k :: rest ->
      let rec go current hi acc = function
        | [] -> List.rev (List.rev current :: acc)
        | k :: rest ->
            if k.n_start < hi then
              go (k :: current) (Float.max hi (k.n_start +. k.n_dur)) acc rest
            else go [ k ] (k.n_start +. k.n_dur) (List.rev current :: acc) rest
      in
      go [ k ] (k.n_start +. k.n_dur) [] rest

let critical_path evs =
  let f = forest evs in
  let rec walk n =
    let kids = children_of f n.n_id in
    let self = self_time f n in
    let picks =
      List.map
        (fun cl ->
          match List.map walk cl with
          | [] -> (0.0, [])
          | first :: rest ->
              (* strict [>] keeps the earliest-starting chain on ties, so
                 the path is deterministic under a scripted clock *)
              List.fold_left
                (fun (bs, bf) (s, fr) -> if s > bs then (s, fr) else (bs, bf))
                first rest)
        (clusters kids)
    in
    ( self +. List.fold_left (fun acc (s, _) -> acc +. s) 0.0 picks,
      (n.n_name, self) :: List.concat_map snd picks )
  in
  let seconds, frames =
    match
      List.map
        (fun cl ->
          match List.map walk cl with
          | [] -> (0.0, [])
          | first :: rest ->
              List.fold_left
                (fun (bs, bf) (s, fr) -> if s > bs then (s, fr) else (bs, bf))
                first rest)
        (clusters f.f_roots)
    with
    | [] -> (0.0, [])
    | picks ->
        ( List.fold_left (fun acc (s, _) -> acc +. s) 0.0 picks,
          List.concat_map snd picks )
  in
  let total_work =
    List.fold_left (fun acc n -> acc +. self_time f n) 0.0 f.f_nodes
  in
  let workers =
    List.fold_left
      (fun acc n ->
        max acc
          (List.length
             (List.filter
                (fun k -> k.n_cat = Telemetry.cat_worker)
                (children_of f n.n_id))))
      1 f.f_nodes
  in
  let efficiency =
    if seconds > 0.0 then total_work /. (seconds *. float_of_int workers)
    else 1.0
  in
  {
    cp_frames = frames;
    cp_seconds = seconds;
    cp_total_work = total_work;
    cp_workers = workers;
    cp_efficiency = efficiency;
  }

(* ------------------------------------------------------------------ *)
(* Per-worker utilisation                                              *)
(* ------------------------------------------------------------------ *)

type worker_stat = {
  w_name : string;
  w_wall : float;
  w_busy : float;
  w_idle : float;
  w_steal : float;
  w_jobs : int;
  w_steals : int;
}

let worker_stats evs =
  nodes_of evs
  |> List.filter (fun n -> n.n_cat = Telemetry.cat_worker)
  |> List.sort by_start
  |> List.map (fun n ->
         {
           w_name = n.n_name;
           w_wall = n.n_dur;
           w_busy = Option.value ~default:n.n_dur (attr_float n.n_attrs "busy_s");
           w_idle = Option.value ~default:0.0 (attr_float n.n_attrs "idle_s");
           w_steal = Option.value ~default:0.0 (attr_float n.n_attrs "steal_s");
           w_jobs = Option.value ~default:0 (attr_int n.n_attrs "jobs");
           w_steals = Option.value ~default:0 (attr_int n.n_attrs "steals");
         })

(* ------------------------------------------------------------------ *)
(* Folded stacks (Brendan Gregg collapse format)                       *)
(* ------------------------------------------------------------------ *)

(* ';' separates frames and ' ' separates stack from count, so neither
   may appear inside a frame name *)
let sanitize_frame name =
  let name = if name = "" then "?" else name in
  String.map (function ';' -> ':' | ' ' -> '_' | c -> c) name

let folded_stacks evs =
  let f = forest evs in
  let tbl = Hashtbl.create 128 in
  let rec walk prefix n =
    let frame = sanitize_frame n.n_name in
    let stack = if prefix = "" then frame else prefix ^ ";" ^ frame in
    (* counts are integer microseconds of self time: flamegraph.pl and
       speedscope both want integral sample counts *)
    let us = int_of_float (Float.round (self_time f n *. 1e6)) in
    if us > 0 then
      Hashtbl.replace tbl stack
        (us + Option.value ~default:0 (Hashtbl.find_opt tbl stack));
    List.iter (walk stack) (children_of f n.n_id)
  in
  List.iter (walk "") f.f_roots;
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let lines = List.sort (fun (a, _) (b, _) -> String.compare a b) lines in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, us) ->
      Buffer.add_string buf stack;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int us);
      Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

let write_text path content =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content);
    Ok ()
  with Sys_error msg -> Error msg

let write_folded ~path evs = write_text path (folded_stacks evs)

(* ------------------------------------------------------------------ *)
(* Focus slices and refactor attribution                               *)
(* ------------------------------------------------------------------ *)

let focus ~keep evs =
  let f = forest evs in
  let kept = Hashtbl.create 128 in
  let rec mark n =
    if not (Hashtbl.mem kept n.n_id) then begin
      Hashtbl.add kept n.n_id ();
      List.iter mark (children_of f n.n_id)
    end
  in
  List.iter (fun n -> if keep ~cat:n.n_cat ~name:n.n_name then mark n) f.f_nodes;
  List.filter
    (function
      | Telemetry.Span s -> Hashtbl.mem kept s.sp_id
      | Telemetry.Instant _ -> false)
    evs

(* Per-category refactor attribution counts only History.apply spans —
   cat_transform spans carrying both "category" and "outcome" attributes.
   The nested rewrite/retypecheck/certify spans also carry "category",
   but never "outcome"; counting them too would double-book the time
   already inside the enclosing apply span. *)
let refactor_categories evs =
  nodes_of evs
  |> List.filter (fun n ->
         n.n_cat = Telemetry.cat_transform
         && attr_string n.n_attrs "category" <> None
         && attr_string n.n_attrs "outcome" <> None)
  |> List.fold_left
       (fun acc n ->
         let cat =
           Option.value ~default:"?" (attr_string n.n_attrs "category")
         in
         let steps, secs =
           Option.value ~default:(0, 0.0) (List.assoc_opt cat acc)
         in
         (cat, (steps + 1, secs +. n.n_dur)) :: List.remove_assoc cat acc)
       []
  |> List.map (fun (cat, (steps, secs)) -> (cat, steps, secs))
  |> List.sort (fun (ca, _, a) (cb, _, b) ->
         match Float.compare b a with 0 -> String.compare ca cb | c -> c)
