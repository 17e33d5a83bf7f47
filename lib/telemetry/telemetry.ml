(* Structured tracing and metrics for the Echo pipeline.

   One process-global collector, disabled by default: every entry point
   reads a single bool ref before doing anything, so instrumentation left
   in place costs nothing on uninstrumented runs.  Timestamps come from
   Logic.Clock, so scripted test clocks make traces deterministic and a
   stepping wall clock cannot produce negative durations.

   The proof farm records from several domains at once, so the collector
   is domain-safe: the finished-event list and the metrics tables sit
   behind one mutex, span ids come from an atomic counter, and the
   open-span stack is domain-local (Domain.DLS) — a worker's spans nest
   under that worker's own stack, and closing a span can never unwind
   another domain's.  Cross-domain nesting is explicit: a spawning site
   passes its span id as [?parent] for the worker's root span. *)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* bytes that need no escape are copied a run at a time *)
  let add_escaped buf s =
    Buffer.add_char buf '"';
    let n = String.length s in
    let run = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring buf s !run (i - !run);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        run := i + 1
      end
    done;
    Buffer.add_substring buf s !run (n - !run);
    Buffer.add_char buf '"'

  (* floats always carry a '.', so they parse back as Float; microsecond
     precision is enough for wall-clock telemetry *)
  let rec add_uint buf n =
    if n >= 10 then add_uint buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

  (* [%.6f] with trailing fraction zeros dropped (one kept), written
     straight into the buffer.  Below 1e9 the scaled value [a * 1e6]
     stays under 2^53, and an FMA recovers that product's rounding error
     exactly, so the six digits are the correctly rounded ones printf
     gives, ties to even included; larger magnitudes take printf. *)
  let add_float buf v =
    if not (Float.is_finite v) then Buffer.add_string buf "null"
    else
      let a = Float.abs v in
      if a >= 1e9 then begin
        let s = Printf.sprintf "%.6f" v in
        let rec keep i = if s.[i] = '0' && s.[i - 1] <> '.' then keep (i - 1) else i in
        Buffer.add_substring buf s 0 (keep (String.length s - 1) + 1)
      end
      else begin
        let x = a *. 1e6 in
        let err = Float.fma a 1e6 (-.x) in
        let whole = Float.to_int x in
        (* [frac] and 0.5 are multiples of x's ulp and [err] is at most
           half of one, so [err] only decides an exact 0.5 *)
        let frac = x -. Float.of_int whole in
        let up =
          frac > 0.5
          || (frac = 0.5 && (err > 0.0 || (err = 0.0 && whole land 1 = 1)))
        in
        let r = if up then whole + 1 else whole in
        if Float.sign_bit v then Buffer.add_char buf '-';
        add_uint buf (r / 1_000_000);
        Buffer.add_char buf '.';
        let fr = r mod 1_000_000 in
        if fr = 0 then Buffer.add_char buf '0'
        else begin
          let digits = ref 6 and q = ref fr in
          while !q mod 10 = 0 do
            q := !q / 10;
            decr digits
          done;
          let p = ref 100_000 in
          for _ = 1 to !digits do
            Buffer.add_char buf (Char.unsafe_chr (48 + (fr / !p mod 10)));
            p := !p / 10
          done
        end
      end

  let rec add buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float v -> add_float buf v
    | String s -> add_escaped buf s
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            add buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            add buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    add buf t;
    Buffer.contents buf

  exception Parse of string

  (* The decoder reads [s] in place: no per-byte option, and a string
     body is copied a run at a time between escapes (in one [String.sub]
     when it has none).  Errors name the byte offset where decoding
     stopped. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let at c = !pos < n && String.unsafe_get s !pos = c in
    let rec skip_ws () =
      if !pos < n then
        match String.unsafe_get s !pos with
        | ' ' | '\t' | '\n' | '\r' ->
            incr pos;
            skip_ws ()
        | _ -> ()
    in
    let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    (* minimal UTF-8 encoding for \uXXXX escapes *)
    let add_utf8 buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    (* index of the next '"' or '\\' at or after [i], or [n] *)
    let rec stop i =
      if i >= n then n
      else match String.unsafe_get s i with '"' | '\\' -> i | _ -> stop (i + 1)
    in
    (* decode the escape whose backslash [pos] has just passed *)
    let escape buf =
      if !pos >= n then fail "unterminated escape";
      let e = s.[!pos] in
      incr pos;
      match e with
      | '"' | '\\' | '/' -> Buffer.add_char buf e
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> add_utf8 buf code
          | None -> fail "bad \\u escape")
      | _ -> fail "bad escape"
    in
    let parse_string () =
      expect '"';
      let j = stop !pos in
      if j < n && s.[j] = '"' then begin
        let str = String.sub s !pos (j - !pos) in
        pos := j + 1;
        str
      end
      else begin
        let buf = Buffer.create 64 in
        let rec go j =
          Buffer.add_substring buf s !pos (j - !pos);
          pos := j;
          if j >= n then fail "unterminated string";
          incr pos;
          if s.[j] = '"' then Buffer.contents buf
          else begin
            escape buf;
            go (stop !pos)
          end
        in
        go j
      end
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec scan () =
        if !pos < n then
          match String.unsafe_get s !pos with
          | '0' .. '9' | '-' | '+' ->
              incr pos;
              scan ()
          | '.' | 'e' | 'E' ->
              is_float := true;
              incr pos;
              scan ()
          | _ -> ()
      in
      scan ();
      let lit = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt lit with
        | Some v -> Float v
        | None -> fail "bad number"
      else
        match int_of_string_opt lit with
        | Some v -> Int v
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      if !pos >= n then fail "unexpected end of input";
      match String.unsafe_get s !pos with
      | '"' -> String (parse_string ())
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '[' ->
          incr pos;
          skip_ws ();
          if at ']' then begin incr pos; List [] end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              if at ',' then begin incr pos; items (v :: acc) end
              else if at ']' then begin incr pos; List (List.rev (v :: acc)) end
              else fail "expected ',' or ']'"
            in
            items []
      | '{' ->
          incr pos;
          skip_ws ();
          if at '}' then begin incr pos; Obj [] end
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              if at ',' then begin incr pos; fields ((k, v) :: acc) end
              else if at '}' then begin incr pos; Obj (List.rev ((k, v) :: acc)) end
              else fail "expected ',' or '}'"
            in
            fields []
      | _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Error msg

  let member key = function
    | Obj fields -> List.find_map (fun (k, v) -> if String.equal k key then Some v else None) fields
    | _ -> None
end
(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type value = S of string | I of int | F of float | B of bool

type attrs = (string * value) list

type event =
  | Span of {
      sp_id : int;
      sp_parent : int;
      sp_name : string;
      sp_cat : string;
      sp_start : float;
      sp_dur : float;
      sp_attrs : attrs;
    }
  | Instant of {
      ev_name : string;
      ev_cat : string;
      ev_time : float;
      ev_attrs : attrs;
    }

let cat_pipeline = "pipeline"
let cat_stage = "stage"
let cat_transform = "transform"
let cat_vc = "vc"
let cat_lemma = "lemma"
let cat_worker = "worker"

(* ------------------------------------------------------------------ *)
(* Collector state                                                     *)
(* ------------------------------------------------------------------ *)

type histo = {
  hg_buckets : float array;
  hg_counts : int array;  (* length = buckets + 1, overflow last *)
  mutable hg_sum : float;
  mutable hg_count : int;
  mutable hg_min : float;
  mutable hg_max : float;
}

type open_span = {
  os_id : int;
  os_parent : int;
  os_name : string;
  os_cat : string;
  os_start : float;
  (* Gc.quick_stat words at open; close attaches the deltas so every span
     carries its own allocation cost.  quick_stat reads domain-local
     counters, and a span opens and closes on the same domain, so the
     subtraction is race-free. *)
  os_minor_w : float;
  os_major_w : float;
  mutable os_attrs : attrs;
}

type state = {
  mutable on : bool;
  mutable finished : event list;   (* completion order, newest first *)
  mutable detached : open_span list;  (* open, on no domain's stack *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histo) Hashtbl.t;
}

let st =
  {
    on = false;
    finished = [];
    detached = [];
    counters = Hashtbl.create 17;
    gauges = Hashtbl.create 17;
    histograms = Hashtbl.create 17;
  }

(* guards [st.finished] and the metrics tables; span ids are atomic so the
   hot "allocate an id" path never queues behind an exporter *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let next_id = Atomic.make 1

(* Innermost-first stack of open spans, one per domain: a worker's spans
   nest under its own ancestry and [finish_span]'s unwind can only close
   spans this domain opened. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let enabled () = st.on

let reset () =
  Atomic.set next_id 1;
  (stack ()) := [];
  locked (fun () ->
      st.finished <- [];
      st.detached <- [];
      Hashtbl.reset st.counters;
      Hashtbl.reset st.gauges;
      Hashtbl.reset st.histograms)

let enable () =
  reset ();
  st.on <- true

let disable () = st.on <- false

(* later bindings win when an attribute is re-annotated *)
let merge_attrs old extra =
  List.filter (fun (k, _) -> not (List.mem_assoc k extra)) old @ extra

let start_span ?(cat = "") ?(attrs = []) ?parent ?(detached = false) name =
  if not st.on then 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let stk = stack () in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match !stk with [] -> 0 | os :: _ -> os.os_id)
    in
    let g = Gc.quick_stat () in
    let os =
      { os_id = id; os_parent = parent; os_name = name; os_cat = cat;
        os_start = Logic.Clock.now ();
        os_minor_w = g.Gc.minor_words; os_major_w = g.Gc.major_words;
        os_attrs = attrs }
    in
    if detached then locked (fun () -> st.detached <- os :: st.detached)
    else stk := os :: !stk;
    id
  end

let close_open ?(attrs = []) os =
  let t = Logic.Clock.now () in
  let g = Gc.quick_stat () in
  let gc_attrs =
    [
      ("gc_minor_w", F (Float.max 0.0 (g.Gc.minor_words -. os.os_minor_w)));
      ("gc_major_w", F (Float.max 0.0 (g.Gc.major_words -. os.os_major_w)));
    ]
  in
  let span =
    Span
      {
        sp_id = os.os_id;
        sp_parent = os.os_parent;
        sp_name = os.os_name;
        sp_cat = os.os_cat;
        sp_start = os.os_start;
        sp_dur = Float.max 0.0 (t -. os.os_start);
        sp_attrs = merge_attrs gc_attrs (merge_attrs os.os_attrs attrs);
      }
  in
  locked (fun () -> st.finished <- span :: st.finished)

let finish_span ?(attrs = []) id =
  let stk = stack () in
  if not st.on || id = 0 then ()
  else if List.exists (fun os -> os.os_id = id) !stk then begin
    (* close abandoned inner spans too: an exception that escaped a nested
       instrumentation site must not corrupt the tree *)
    let rec unwind = function
      | [] -> []
      | os :: rest ->
          if os.os_id = id then begin
            close_open ~attrs os;
            rest
          end
          else begin
            close_open os;
            unwind rest
          end
    in
    stk := unwind !stk
  end
  else
    (* a detached span, else an unknown or other-domain id *)
    let taken =
      locked (fun () ->
          match List.partition (fun os -> os.os_id = id) st.detached with
          | [ os ], rest ->
              st.detached <- rest;
              Some os
          | _ -> None)
    in
    Option.iter (close_open ~attrs) taken

let current_span () = match !(stack ()) with [] -> 0 | os :: _ -> os.os_id

let annotate attrs =
  if st.on then
    match !(stack ()) with
    | [] -> ()
    | os :: _ -> os.os_attrs <- merge_attrs os.os_attrs attrs

let with_span ?cat ?attrs ?parent name f =
  if not st.on then f ()
  else
    let id = start_span ?cat ?attrs ?parent name in
    match f () with
    | v ->
        finish_span id;
        v
    | exception e ->
        finish_span ~attrs:[ ("error", S (Printexc.to_string e)) ] id;
        raise e

let instant ?(cat = "") ?(attrs = []) name =
  if st.on then
    let ev =
      Instant
        { ev_name = name; ev_cat = cat; ev_time = Logic.Clock.now (); ev_attrs = attrs }
    in
    locked (fun () -> st.finished <- ev :: st.finished)

let event_time = function
  | Span { sp_start; _ } -> sp_start
  | Instant { ev_time; _ } -> ev_time

let events () =
  let evs = locked (fun () -> st.finished) in
  List.stable_sort
    (fun a b -> Float.compare (event_time a) (event_time b))
    (List.rev evs)

let ingest evs =
  let max_id =
    List.fold_left
      (fun acc e -> match e with Span { sp_id; _ } -> max acc sp_id | Instant _ -> acc)
      0 evs
  in
  (* racy CAS-free bump is fine: ingest happens on the coordinator before
     workers exist *)
  if max_id >= Atomic.get next_id then Atomic.set next_id (max_id + 1);
  locked (fun () -> st.finished <- List.rev_append evs st.finished)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let count ?(by = 1) name =
  if st.on then
    locked (fun () ->
        match Hashtbl.find_opt st.counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add st.counters name (ref by))

let count_memos readings =
  List.iter
    (fun (name, s) -> List.iter (fun (c, by) -> count ~by c) (Memo.counters name s))
    readings

let gauge name v =
  if st.on then
    locked (fun () ->
        match Hashtbl.find_opt st.gauges name with
        | Some r -> r := v
        | None -> Hashtbl.add st.gauges name (ref v))

let default_buckets =
  [| 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

(* coarser ladder for stage-level durations: whole pipeline stages run for
   seconds to minutes, and under [default_buckets] they all crowd the top
   bucket, which makes the per-stage histogram unreadable *)
let stage_buckets =
  [| 0.1; 0.5; 1.0; 2.5; 5.0; 10.0; 20.0; 30.0; 60.0; 120.0; 300.0 |]

(* assumes [mu] is held *)
let observe_locked ~buckets name v =
  let h =
    match Hashtbl.find_opt st.histograms name with
    | Some h -> h
    | None ->
        let h =
          {
            hg_buckets = Array.copy buckets;
            hg_counts = Array.make (Array.length buckets + 1) 0;
            hg_sum = 0.0;
            hg_count = 0;
            hg_min = nan;
            hg_max = nan;
          }
        in
        Hashtbl.add st.histograms name h;
        h
  in
  (* first bucket whose inclusive upper bound admits v; overflow last *)
  let rec slot i =
    if i >= Array.length h.hg_buckets then i
    else if v <= h.hg_buckets.(i) then i
    else slot (i + 1)
  in
  let i = slot 0 in
  h.hg_counts.(i) <- h.hg_counts.(i) + 1;
  h.hg_sum <- h.hg_sum +. v;
  h.hg_count <- h.hg_count + 1;
  h.hg_min <- (if h.hg_count = 1 then v else Float.min h.hg_min v);
  h.hg_max <- (if h.hg_count = 1 then v else Float.max h.hg_max v)

let observe ?(buckets = default_buckets) name v =
  if st.on then locked (fun () -> observe_locked ~buckets name v)

(* Per-domain batched updates for hot paths.  A farm worker recording a
   counter bump and a wall-clock observation per VC would otherwise take
   the collector mutex twice per VC from every domain at once; batching
   accumulates domain-locally and merges everything in one locked section
   when the worker's span closes.  Flushing replays observations in
   recording order, so merged histograms are identical to unbatched
   ones. *)
module Batch = struct
  type acc = {
    b_counts : (string, int ref) Hashtbl.t;
    b_obs : (string, float array * float list ref) Hashtbl.t;
  }

  let key : acc Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { b_counts = Hashtbl.create 17; b_obs = Hashtbl.create 17 })

  let acc () = Domain.DLS.get key

  let count ?(by = 1) name =
    if st.on then
      let a = acc () in
      match Hashtbl.find_opt a.b_counts name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add a.b_counts name (ref by)

  let observe ?(buckets = default_buckets) name v =
    if st.on then
      let a = acc () in
      match Hashtbl.find_opt a.b_obs name with
      | Some (_, vs) -> vs := v :: !vs
      | None -> Hashtbl.add a.b_obs name (buckets, ref [ v ])

  let flush () =
    let a = acc () in
    if Hashtbl.length a.b_counts > 0 || Hashtbl.length a.b_obs > 0 then begin
      if st.on then
        locked (fun () ->
            Hashtbl.iter
              (fun name r ->
                match Hashtbl.find_opt st.counters name with
                | Some c -> c := !c + !r
                | None -> Hashtbl.add st.counters name (ref !r))
              a.b_counts;
            Hashtbl.iter
              (fun name (buckets, vs) ->
                List.iter (observe_locked ~buckets name) (List.rev !vs))
              a.b_obs);
      (* dropped rather than merged when telemetry went off mid-batch:
         a disabled collector must stay empty *)
      Hashtbl.reset a.b_counts;
      Hashtbl.reset a.b_obs
    end
end

type histogram = {
  hs_buckets : float array;
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
}

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_histograms : (string * histogram) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  locked (fun () ->
      {
        sn_counters = sorted_bindings st.counters (fun r -> !r);
        sn_gauges = sorted_bindings st.gauges (fun r -> !r);
        sn_histograms =
          sorted_bindings st.histograms (fun h ->
              {
                hs_buckets = Array.copy h.hg_buckets;
                hs_counts = Array.copy h.hg_counts;
                hs_count = h.hg_count;
                hs_sum = h.hg_sum;
                hs_min = h.hg_min;
                hs_max = h.hg_max;
              });
      })

(* ------------------------------------------------------------------ *)
(* Event <-> JSON                                                      *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | S s -> Json.String s
  | I n -> Json.Int n
  | F v -> Json.Float v
  | B b -> Json.Bool b

let value_of_json = function
  | Json.String s -> Some (S s)
  | Json.Int n -> Some (I n)
  | Json.Float v -> Some (F v)
  | Json.Bool b -> Some (B b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let attrs_to_json attrs = Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)

let attrs_of_json = function
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun v -> (k, v)) (value_of_json v))
        fields
  | _ -> []

let event_to_json = function
  | Span s ->
      Json.Obj
        [
          ("type", Json.String "span");
          ("id", Json.Int s.sp_id);
          ("parent", Json.Int s.sp_parent);
          ("name", Json.String s.sp_name);
          ("cat", Json.String s.sp_cat);
          ("start", Json.Float s.sp_start);
          ("dur", Json.Float s.sp_dur);
          ("attrs", attrs_to_json s.sp_attrs);
        ]
  | Instant e ->
      Json.Obj
        [
          ("type", Json.String "instant");
          ("name", Json.String e.ev_name);
          ("cat", Json.String e.ev_cat);
          ("t", Json.Float e.ev_time);
          ("attrs", attrs_to_json e.ev_attrs);
        ]

let json_string j = match j with Some (Json.String s) -> Some s | _ -> None

let json_number j =
  match j with
  | Some (Json.Float v) -> Some v
  | Some (Json.Int n) -> Some (float_of_int n)
  | _ -> None

let json_int j = match j with Some (Json.Int n) -> Some n | _ -> None

let event_of_json j =
  let m k = Json.member k j in
  match json_string (m "type") with
  | Some "span" -> (
      match
        (json_int (m "id"), json_int (m "parent"), json_string (m "name"),
         json_string (m "cat"), json_number (m "start"), json_number (m "dur"))
      with
      | Some id, Some parent, Some name, Some cat, Some start, Some dur ->
          Ok
            (Span
               {
                 sp_id = id;
                 sp_parent = parent;
                 sp_name = name;
                 sp_cat = cat;
                 sp_start = start;
                 sp_dur = dur;
                 sp_attrs = attrs_of_json (m "attrs");
               })
      | _ -> Error "span event missing a required field")
  | Some "instant" -> (
      match (json_string (m "name"), json_string (m "cat"), json_number (m "t")) with
      | Some name, Some cat, Some t ->
          Ok
            (Instant
               { ev_name = name; ev_cat = cat; ev_time = t; ev_attrs = attrs_of_json (m "attrs") })
      | _ -> Error "instant event missing a required field")
  | _ -> Error "event without a recognised \"type\""

(* ------------------------------------------------------------------ *)
(* File exporters                                                      *)
(* ------------------------------------------------------------------ *)

let write_file path content =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content);
    Ok ()
  with Sys_error msg -> Error msg

let write_jsonl ~path evs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    evs;
  write_file path (Buffer.contents buf)

let read_jsonl ~path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc lineno =
          match input_line ic with
          | line ->
              if String.trim line = "" then go acc (lineno + 1)
              else (
                match Json.of_string line with
                | Error msg ->
                    raise (Failure (Printf.sprintf "%s:%d: %s" path lineno msg))
                | Ok j -> (
                    match event_of_json j with
                    | Ok e -> go (e :: acc) (lineno + 1)
                    | Error msg ->
                        raise (Failure (Printf.sprintf "%s:%d: %s" path lineno msg))))
          | exception End_of_file -> List.rev acc
        in
        Ok (go [] 1))
  with
  | Sys_error msg -> Error msg
  | Failure msg -> Error msg

let chrome_trace evs =
  let t0 =
    List.fold_left (fun acc e -> Float.min acc (event_time e)) infinity evs
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let us t = Json.Float ((t -. t0) *. 1e6) in
  let entry = function
    | Span s ->
        Json.Obj
          [
            ("name", Json.String s.sp_name);
            ("cat", Json.String (if s.sp_cat = "" then "misc" else s.sp_cat));
            ("ph", Json.String "X");
            ("ts", us s.sp_start);
            ("dur", Json.Float (s.sp_dur *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", attrs_to_json s.sp_attrs);
          ]
    | Instant e ->
        Json.Obj
          [
            ("name", Json.String e.ev_name);
            ("cat", Json.String (if e.ev_cat = "" then "misc" else e.ev_cat));
            ("ph", Json.String "i");
            ("s", Json.String "t");
            ("ts", us e.ev_time);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", attrs_to_json e.ev_attrs);
          ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map entry evs));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome_trace ~path evs = write_file path (Json.to_string (chrome_trace evs))

let histogram_to_json (h : histogram) =
  Json.Obj
    [
      ("buckets", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.hs_buckets)));
      ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.hs_counts)));
      ("count", Json.Int h.hs_count);
      ("sum", Json.Float h.hs_sum);
      ("min", if Float.is_nan h.hs_min then Json.Null else Json.Float h.hs_min);
      ("max", if Float.is_nan h.hs_max then Json.Null else Json.Float h.hs_max);
    ]

let snapshot_to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.sn_counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.sn_gauges));
      ("histograms",
       Json.Obj (List.map (fun (k, h) -> (k, histogram_to_json h)) s.sn_histograms));
    ]

let histogram_of_json j =
  let floats = function
    | Some (Json.List xs) ->
        Some (Array.of_list (List.filter_map (fun x -> json_number (Some x)) xs))
    | _ -> None
  in
  let ints = function
    | Some (Json.List xs) ->
        Some (Array.of_list (List.filter_map (fun x -> json_int (Some x)) xs))
    | _ -> None
  in
  match
    (floats (Json.member "buckets" j), ints (Json.member "counts" j),
     json_int (Json.member "count" j), json_number (Json.member "sum" j))
  with
  | Some buckets, Some counts, Some count, Some sum ->
      Ok
        {
          hs_buckets = buckets;
          hs_counts = counts;
          hs_count = count;
          hs_sum = sum;
          hs_min = Option.value ~default:nan (json_number (Json.member "min" j));
          hs_max = Option.value ~default:nan (json_number (Json.member "max" j));
        }
  | _ -> Error "malformed histogram"

let snapshot_of_json j =
  let obj_fields k = match Json.member k j with Some (Json.Obj fs) -> fs | _ -> [] in
  let counters =
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, n)) (json_int (Some v)))
      (obj_fields "counters")
  in
  let gauges =
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, n)) (json_number (Some v)))
      (obj_fields "gauges")
  in
  let rec histos acc = function
    | [] -> Ok (List.rev acc)
    | (k, v) :: rest -> (
        match histogram_of_json v with
        | Ok h -> histos ((k, h) :: acc) rest
        | Error msg -> Error (k ^ ": " ^ msg))
  in
  match histos [] (obj_fields "histograms") with
  | Ok hs -> Ok { sn_counters = counters; sn_gauges = gauges; sn_histograms = hs }
  | Error msg -> Error msg

let write_metrics ~path s = write_file path (Json.to_string (snapshot_to_json s))

let read_metrics ~path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        match Json.of_string (really_input_string ic n) with
        | Ok j -> snapshot_of_json j
        | Error msg -> Error (path ^ ": " ^ msg))
  with Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Summary report                                                      *)
(* ------------------------------------------------------------------ *)

module Summary = struct
  let attr_string attrs k =
    match List.assoc_opt k attrs with
    | Some (S s) -> Some s
    | Some (I n) -> Some (string_of_int n)
    | Some (F v) -> Some (Printf.sprintf "%g" v)
    | Some (B b) -> Some (string_of_bool b)
    | None -> None

  let attr_float attrs k =
    match List.assoc_opt k attrs with
    | Some (F v) -> Some v
    | Some (I n) -> Some (float_of_int n)
    | _ -> None

  let spans_of cat evs =
    List.filter_map
      (function
        | Span s when s.sp_cat = cat ->
            Some (s.sp_name, s.sp_start, s.sp_dur, s.sp_attrs)
        | _ -> None)
      evs

  let by_dur spans =
    List.stable_sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a) spans

  let render ?(top = 5) ~events:evs ~metrics () =
    let buf = Buffer.create 2048 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let section title = pr "\n== %s ==\n" title in

    (match spans_of cat_pipeline evs with
    | [] -> pr "telemetry report (%d events)\n" (List.length evs)
    | runs ->
        pr "telemetry report (%d events, %d pipeline run%s)\n" (List.length evs)
          (List.length runs)
          (if List.length runs = 1 then "" else "s");
        List.iter
          (fun (name, _, dur, attrs) ->
            pr "  run %-28s %8.2fs%s\n" name dur
              (match attr_string attrs "verdict" with
              | Some v -> "  " ^ v
              | None -> ""))
          runs);

    (* per-stage time breakdown *)
    (match spans_of cat_stage evs with
    | [] -> ()
    | stages ->
        section "per-stage time breakdown";
        let total = List.fold_left (fun acc (_, _, d, _) -> acc +. d) 0.0 stages in
        List.iter
          (fun (name, _, dur, attrs) ->
            let pct = if total > 0.0 then 100.0 *. dur /. total else 0.0 in
            let note =
              match (attr_string attrs "from_checkpoint", attr_string attrs "outcome") with
              | Some "true", _ -> " (from checkpoint)"
              | _, Some o when o <> "ok" -> "  [" ^ o ^ "]"
              | _ -> ""
            in
            pr "  %-28s %8.3fs  %5.1f%%%s\n" name dur pct note)
          stages);

    (* slowest VCs *)
    let vcs = spans_of cat_vc evs in
    (match vcs with
    | [] -> ()
    | _ ->
        section (Printf.sprintf "top %d slowest VCs (of %d)" top (List.length vcs));
        List.iteri
          (fun i (name, _, dur, attrs) ->
            if i < top then
              pr "  %-36s %8.3fs  %s, %s attempt(s)\n" name dur
                (Option.value ~default:"?" (attr_string attrs "status"))
                (Option.value ~default:"?" (attr_string attrs "attempts")))
          (by_dur vcs));

    (* retry hot spots: VCs whose capability ladder went past level 0 *)
    let attempts (_, _, _, attrs) =
      Option.bind (attr_string attrs "attempts") int_of_string_opt
      |> Option.value ~default:1
    in
    (match List.filter (fun v -> attempts v > 1) vcs with
    | [] -> ()
    | hot ->
        section
          (Printf.sprintf "retry hot spots (%d of %d VCs climbed past the first level)"
             (List.length hot) (List.length vcs));
        List.iteri
          (fun i ((name, _, dur, attrs) as v) ->
            if i < top then
              pr "  %-36s %d levels %8.3fs  %s\n" name (attempts v) dur
                (Option.value ~default:"?" (attr_string attrs "status")))
          (by_dur hot));

    (* proof farm: worker spans + cache counters *)
    let workers = spans_of cat_worker evs in
    let counter name =
      match metrics with
      | None -> None
      | Some s -> List.assoc_opt name s.sn_counters
    in
    let hits = Option.value ~default:0 (counter "cache_hits") in
    let misses = Option.value ~default:0 (counter "cache_misses") in
    (match (workers, hits + misses) with
    | [], 0 -> ()
    | _ ->
        section "proof farm";
        List.iter
          (fun (name, _, dur, attrs) ->
            pr "  %-28s %8.3fs  %s job(s), %s stolen\n" name dur
              (Option.value ~default:"?" (attr_string attrs "jobs"))
              (Option.value ~default:"0" (attr_string attrs "steals")))
          workers;
        (match counter "farm_steals" with
        | Some n -> pr "  steals total: %d\n" n
        | None -> ());
        if hits + misses > 0 then
          pr "  proof cache: %d hit(s) / %d miss(es)  (%.1f%% hit rate)\n" hits
            misses
            (100.0 *. float_of_int hits /. float_of_int (hits + misses)));

    (* refactoring transformations *)
    let transforms = spans_of cat_transform evs in
    (match transforms with
    | [] -> ()
    | _ ->
        let total = List.fold_left (fun acc (_, _, d, _) -> acc +. d) 0.0 transforms in
        section
          (Printf.sprintf "refactoring: %d transformations, %.3fs"
             (List.length transforms) total);
        List.iteri
          (fun i (name, _, dur, attrs) ->
            if i < top then
              pr "  %-44s %8.3fs%s\n" name dur
                (match attr_string attrs "category" with
                | Some c -> "  [" ^ c ^ "]"
                | None -> ""))
          (by_dur transforms));

    (* spec-structure match ratio evolution *)
    let ratios =
      List.filter_map
        (function
          | Instant e when e.ev_name = "match_ratio" ->
              Option.map
                (fun r -> (attr_string e.ev_attrs "block", r))
                (attr_float e.ev_attrs "ratio")
          | _ -> None)
        evs
    in
    (match ratios with
    | [] -> ()
    | _ ->
        section "spec match ratio evolution";
        List.iter
          (fun (block, r) ->
            pr "  block %-4s %5.1f%%\n" (Option.value ~default:"?" block) (100.0 *. r))
          ratios);

    (* metrics snapshot *)
    (match metrics with
    | None -> ()
    | Some s ->
        if s.sn_counters <> [] then begin
          section "counters";
          List.iter (fun (k, v) -> pr "  %-36s %d\n" k v) s.sn_counters
        end;
        if s.sn_gauges <> [] then begin
          section "gauges";
          List.iter (fun (k, v) -> pr "  %-36s %g\n" k v) s.sn_gauges
        end;
        if s.sn_histograms <> [] then begin
          section "histograms";
          List.iter
            (fun (k, h) ->
              if h.hs_count = 0 then pr "  %-36s (empty)\n" k
              else begin
                pr "  %-36s n=%d sum=%.3f min=%.3f mean=%.3f max=%.3f\n" k h.hs_count
                  h.hs_sum h.hs_min
                  (h.hs_sum /. float_of_int h.hs_count)
                  h.hs_max;
                Array.iteri
                  (fun i c ->
                    if c > 0 then
                      if i < Array.length h.hs_buckets then
                        pr "      <= %-10g %d\n" h.hs_buckets.(i) c
                      else pr "      >  %-10g %d\n" h.hs_buckets.(i - 1) c)
                  h.hs_counts
              end)
            s.sn_histograms
        end);
    Buffer.contents buf
end
