(* The [Telemetry.Json] codec that the run-copying codec replaced, kept
   verbatim as the reference of the codec identity tests
   (test_text_identity.ml).  [t] is re-exported from [Telemetry.Json] so
   that reference and current values compare directly.  Test-only. *)

type t = Telemetry.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* floats always carry a '.', so they parse back as Float; microsecond
   precision is enough for wall-clock telemetry *)
let add_float buf v =
  if not (Float.is_finite v) then Buffer.add_string buf "null"
  else begin
    let s = Printf.sprintf "%.6f" v in
    let n = String.length s in
    let rec keep i = if s.[i] = '0' && s.[i - 1] <> '.' then keep (i - 1) else i in
    Buffer.add_string buf (String.sub s 0 (keep (n - 1) + 1))
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

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
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
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' -> Buffer.add_char buf e; go ()
            | 'n' -> Buffer.add_char buf '\n'; go ()
            | 'r' -> Buffer.add_char buf '\r'; go ()
            | 't' -> Buffer.add_char buf '\t'; go ()
            | 'b' -> Buffer.add_char buf '\b'; go ()
            | 'f' -> Buffer.add_char buf '\012'; go ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code -> add_utf8 buf code
                | None -> fail "bad \\u escape");
                go ()
            | _ -> fail "bad escape")
        | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
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
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number ()
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
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
