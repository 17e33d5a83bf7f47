(* Persistent content-addressed proof cache — see cache.mli.

   The index is JSONL: a header line {"format":"echo-proof-cache v2"},
   then {"key":..,"status":..,"attempts":..,"time":..[,"arg":..]} lines.
   Loading is tolerant (bad lines are skipped, a wrong header empties the
   cache) because a cache can only ever be an accelerator: losing entries
   costs re-proving, never soundness.

   v2: VC digests are assembled from per-term cached digests (count prefix
   + hex digests) instead of one serialization of the whole VC, so v1 keys
   never match and a version bump forces a clean re-fill. *)

module Json = Telemetry.Json

type entry_status =
  | E_auto
  | E_hinted of int
  | E_residual of string

type entry = {
  en_status : entry_status;
  en_attempts : int;
  en_time : float;
}

(* (inode, size, mtime) of an index file *)
type stamp = int * int * float

type t = {
  c_dir : string;
  c_entries : (string, entry) Hashtbl.t;
  mutable c_stamp : stamp option;
      (* the index as this handle last read or wrote it *)
}

let format_version = "echo-proof-cache v2"

let index_file dir = Filename.concat dir "index.jsonl"

let dir t = t.c_dir
let size t = Hashtbl.length t.c_entries
let lookup t key = Hashtbl.find_opt t.c_entries key
let add t key entry = Hashtbl.replace t.c_entries key entry

let entry_to_json key e =
  let status, arg =
    match e.en_status with
    | E_auto -> ("auto", [])
    | E_hinted n -> ("hinted", [ ("arg", Json.Int n) ])
    | E_residual r -> ("residual", [ ("arg", Json.String r) ])
  in
  Json.Obj
    ([ ("key", Json.String key);
       ("status", Json.String status);
       ("attempts", Json.Int e.en_attempts);
       ("time", Json.Float e.en_time) ]
    @ arg)

let entry_of_json j =
  let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int n) -> Some n | _ -> None in
  let num k =
    match Json.member k j with
    | Some (Json.Float v) -> Some v
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  match (str "key", str "status", int "attempts", num "time") with
  | Some key, Some status, Some attempts, Some time -> (
      let mk st = Some (key, { en_status = st; en_attempts = attempts; en_time = time }) in
      match status with
      | "auto" -> mk E_auto
      | "hinted" -> ( match int "arg" with Some n -> mk (E_hinted n) | None -> None)
      | "residual" -> ( match str "arg" with Some r -> mk (E_residual r) | None -> None)
      | _ -> None)
  | _ -> None

let stamp_of (st : Unix.stats) = (st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)

(* Load [path] into [entries]; the stamp is taken on the channel read, so
   a rename racing the open can only make the next check reload. *)
let load_into entries path : stamp option =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let stamp = stamp_of (Unix.fstat (Unix.descr_of_in_channel ic)) in
          (* header line must name a format we understand *)
          let header_ok =
            match input_line ic with
            | line -> (
                match Json.of_string line with
                | Ok j -> (
                    match Json.member "format" j with
                    | Some (Json.String v) -> v = format_version
                    | _ -> false)
                | Error _ -> false)
            | exception End_of_file -> false
          in
          (if header_ok then
             let rec go () =
               match input_line ic with
               | line ->
                   (if String.trim line <> "" then
                      match Json.of_string line with
                      | Ok j -> (
                          match entry_of_json j with
                          | Some (key, e) -> Hashtbl.replace entries key e
                          | None -> ())
                      | Error _ -> ());
                   go ()
               | exception End_of_file -> ()
             in
             go ());
          Some stamp)

let open_ ~dir =
  let entries = Hashtbl.create 256 in
  let stamp = load_into entries (index_file dir) in
  { c_dir = dir; c_entries = entries; c_stamp = stamp }

(* Merge the on-disk index into memory (in-memory entries win) unless it
   is still the file this handle last read or wrote: then every entry on
   disk is already in memory. *)
let merge_disk t =
  let path = index_file t.c_dir in
  let unchanged =
    match t.c_stamp with
    | None -> false
    | Some s -> (
        match Unix.stat path with
        | st -> stamp_of st = s
        | exception Unix.Unix_error _ -> false)
  in
  if not unchanged then begin
    let disk = Hashtbl.create 64 in
    t.c_stamp <- load_into disk path;
    Hashtbl.iter
      (fun k e ->
        if not (Hashtbl.mem t.c_entries k) then Hashtbl.replace t.c_entries k e)
      disk
  end

(* Entries a sibling process saved since we opened become visible.  This
   is how long-lived proof workers sharing one cache directory inherit
   each other's proofs between jobs without reopening the cache. *)
let refresh t =
  let before = Hashtbl.length t.c_entries in
  merge_disk t;
  Hashtbl.length t.c_entries - before

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let save t =
  try
    mkdir_p t.c_dir;
    (* merge what another (e.g. interrupted) run wrote since we opened:
       on-disk entries we don't have locally are kept *)
    merge_disk t;
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) t.c_entries []
      |> List.sort String.compare
    in
    (* pid-unique temp name: concurrent saves from sibling worker
       processes must never interleave writes into one temp file *)
    let tmp =
      Printf.sprintf "%s.%d.tmp" (index_file t.c_dir) (Unix.getpid ())
    in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Json.to_string (Json.Obj [ ("format", Json.String format_version) ]));
        output_char oc '\n';
        List.iter
          (fun k ->
            output_string oc
              (Json.to_string (entry_to_json k (Hashtbl.find t.c_entries k)));
            output_char oc '\n')
          keys;
        flush oc;
        t.c_stamp <- Some (stamp_of (Unix.fstat (Unix.descr_of_out_channel oc))));
    Sys.rename tmp (index_file t.c_dir);
    Ok ()
  with Sys_error msg -> Error msg
