type ('k, 'v) t = {
  cap : int;
  tbl : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t;  (* insertion order, oldest first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create cap =
  { cap = max 1 cap; tbl = Hashtbl.create (min cap 1024); order = Queue.create ();
    hits = 0; misses = 0; evictions = 0 }

let add t k v =
  if not (Hashtbl.mem t.tbl k) then begin
    if Hashtbl.length t.tbl >= t.cap then begin
      Hashtbl.remove t.tbl (Queue.pop t.order);
      t.evictions <- t.evictions + 1
    end;
    Hashtbl.add t.tbl k v;
    Queue.push k t.order
  end

let find t k compute =
  match Hashtbl.find t.tbl k with
  | v ->
      t.hits <- t.hits + 1;
      v
  | exception Not_found ->
      t.misses <- t.misses + 1;
      let v = compute () in
      (* a recursive [compute] may have stored [k] already *)
      add t k v;
      v

type stats = { hits : int; misses : int; evictions : int }

let stats (t : (_, _) t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions }

let diff a b =
  { hits = a.hits - b.hits; misses = a.misses - b.misses;
    evictions = a.evictions - b.evictions }

let counters prefix s =
  [ (prefix ^ "_hits", s.hits); (prefix ^ "_misses", s.misses);
    (prefix ^ "_evictions", s.evictions) ]

let measure read f =
  let before = read () in
  let r = f () in
  (r, List.map2 (fun (name, later) (_, earlier) -> (name, diff later earlier)) (read ()) before)

let sum readings =
  let all = List.concat readings in
  let names =
    List.fold_left (fun ns (n, _) -> if List.mem n ns then ns else n :: ns) [] all
  in
  let total name =
    List.fold_left
      (fun a (n, s) ->
        if n <> name then a
        else
          { hits = a.hits + s.hits; misses = a.misses + s.misses;
            evictions = a.evictions + s.evictions })
      { hits = 0; misses = 0; evictions = 0 } all
  in
  List.rev_map (fun n -> (n, total n)) names
