(* The verification refactoring of the optimized AES implementation
   (§6.2.1/§6.2.2): transformations grouped into 14 blocks, applied
   mechanically with per-instance applicability checks, FIPS-197
   known-answer validation after every block, and (under certification) a
   certificate per step.

   The blocks follow the paper's §6.2.2 grouping (numbering differs
   slightly in order but covers the same categories):
    1  loop rerolling for the major loops of encrypt/decrypt
    2  reversal of word packing (words -> 4-byte arrays)
    3  reversal of the ten table lookups (Te0..Te4, Td0..Td4)
    4  packing four words into a State
    5  reversal of the inlining of the round functions
    6  revealing the three key-size paths and splitting them into procedures
    7  reversal of the inlining of the key-expansion helpers
    8  adjustment of loop forms (absorbing the key-size guard rounds)
    9  reversal of additional inlined functions (the specification's round
       stages: SubBytes, ShiftRows, MixColumns, AddRoundKey and inverses)
   10  loop rerolling for sequential state updates (block load/store)
   11  procedure splitting (block load/store procedures)
   12  adjustment of intermediate storage (type renaming and dead removal)
   13  adjustment of loop forms in the key schedule (the unified FIPS-197
       expansion recurrence)
   14  adjustment of intermediate computations and additional procedure
       splitting in the decryption key schedule *)

open Minispark.Ast
module Ast = Minispark.Ast
module Parser = Minispark.Parser
module H = Refactor.History
module T = Refactor.Transform

let apply h tr = ignore (H.apply h tr)

(* KAT gate: every block must leave FIPS-197 behaviour intact.  The gate
   interprets full AES blocks, so it gets its own span — without one its
   cost would surface as unattributed refactor-stage self time in the
   profile *)
let check_kats h =
  Telemetry.with_span ~cat:"gate" "kat-gate" (fun () ->
      let env, prog = H.current h in
      if not (Aes_kat.all_pass (Aes_kat.run_vectors env prog)) then
        failwith "refactoring broke a FIPS-197 known-answer test")

(* ------------------------------------------------------------------ *)
(* helpers for template derivation ("derived from the code", §5.1)     *)
(* ------------------------------------------------------------------ *)

let rename_vars renames stmts =
  let rn_expr =
    Ast.map_expr (function
      | Var x as e -> (
          match List.assoc_opt x renames with Some y -> Var y | None -> e)
      | e -> e)
  in
  let rec rn_lv = function
    | Lvar x -> (
        match List.assoc_opt x renames with Some y -> Lvar y | None -> Lvar x)
    | Lindex (lv, i) -> Lindex (rn_lv lv, rn_expr i)
  in
  Ast.map_stmts
    (fun s ->
      let s = match s with Assign (lv, e) -> Assign (rn_lv lv, e) | s -> s in
      [ Ast.map_own_exprs rn_expr s ])
    stmts

(* replace the (unique) [rk (...)] lookup of the j-th statement by the
   metavariable [kj] *)
let abstract_round_keys stmts =
  List.mapi
    (fun j s ->
      let meta = Printf.sprintf "k%d" j in
      let rw =
        Ast.map_expr (function
          | Index (Var "rk", _) -> Var meta
          | e -> e)
      in
      Ast.map_own_exprs rw s)
    stmts

let sub_body prog name = (Ast.find_sub_exn prog name).sub_body

let slice l ~from ~len = List.filteri (fun k _ -> k >= from && k < from + len) l

let loop_body_at prog name at =
  match List.nth (sub_body prog name) at with
  | For fl -> fl.for_body
  | _ -> failwith "loop_body_at: not a loop"

let state_param name mode = { par_name = name; par_mode = mode; par_typ = Tnamed "state" }
let word_param name = { par_name = name; par_mode = Mode_in; par_typ = Tnamed "word_b" }

let round_params =
  [ state_param "src" Mode_in; state_param "dst" Mode_out;
    word_param "k0"; word_param "k1"; word_param "k2"; word_param "k3" ]

(* ------------------------------------------------------------------ *)
(* block 3 material: S-box constants and GF(2^8) helper functions      *)
(* ------------------------------------------------------------------ *)

let byte_table name (values : int array) =
  Dconst
    {
      k_name = name;
      k_typ = Tarray (0, 255, Tnamed "byte");
      k_value = Aggregate (Array.to_list (Array.map (fun n -> Int_lit n) values));
    }

let xtime_sub =
  match
    Parser.of_string
      {|program p is
         type byte is mod 256;
         function xtime (a : in byte) return byte
         is
         begin
           if a >= 128 then
             return (a * 2) xor 27;
           else
             return a * 2;
           end if;
         end xtime;
        end p;|}
  with
  | prog -> Ast.find_sub_exn prog "xtime"

let gf_mul_sub =
  match
    Parser.of_string
      {|program p is
         type byte is mod 256;
         function xtime (a : in byte) return byte
         is
         begin
           return a;
         end xtime;
         function gf_mul (a : in byte; c : in byte) return byte
         is
           p : byte;
           q : byte;
           r : byte;
         begin
           p := a;
           q := c;
           r := 0;
           for k in 0 .. 7 loop
             if (q and 1) = 1 then
               r := r xor p;
             end if;
             p := xtime (p);
             q := shift_right (q, 1);
           end loop;
           return r;
         end gf_mul;
        end p;|}
  with
  | prog -> Ast.find_sub_exn prog "gf_mul"

let table_helpers =
  [ Dtype ("sbox_table", Tarray (0, 255, Tnamed "byte"));
    byte_table "sbox" Aes_reference.sbox;
    byte_table "inv_sbox" Aes_reference.inv_sbox;
    Dsub xtime_sub;
    Dsub gf_mul_sub ]

let e s = Parser.expr_of_string s

(* replacements for the ten tables, from the documentation (§6.2.1) *)
let table_replacements =
  [ ("te0", "(gf_mul (2, sbox (x)), sbox (x), sbox (x), gf_mul (3, sbox (x)))");
    ("te1", "(gf_mul (3, sbox (x)), gf_mul (2, sbox (x)), sbox (x), sbox (x))");
    ("te2", "(sbox (x), gf_mul (3, sbox (x)), gf_mul (2, sbox (x)), sbox (x))");
    ("te3", "(sbox (x), sbox (x), gf_mul (3, sbox (x)), gf_mul (2, sbox (x)))");
    ("te4", "(sbox (x), sbox (x), sbox (x), sbox (x))");
    ("td0",
     "(gf_mul (14, inv_sbox (x)), gf_mul (9, inv_sbox (x)), gf_mul (13, inv_sbox (x)), gf_mul (11, inv_sbox (x)))");
    ("td1",
     "(gf_mul (11, inv_sbox (x)), gf_mul (14, inv_sbox (x)), gf_mul (9, inv_sbox (x)), gf_mul (13, inv_sbox (x)))");
    ("td2",
     "(gf_mul (13, inv_sbox (x)), gf_mul (11, inv_sbox (x)), gf_mul (14, inv_sbox (x)), gf_mul (9, inv_sbox (x)))");
    ("td3",
     "(gf_mul (9, inv_sbox (x)), gf_mul (13, inv_sbox (x)), gf_mul (11, inv_sbox (x)), gf_mul (14, inv_sbox (x)))");
    ("td4", "(inv_sbox (x), inv_sbox (x), inv_sbox (x), inv_sbox (x))") ]

(* ------------------------------------------------------------------ *)
(* block 7/9/13/14 material: specification-shaped helper subprograms   *)
(* ------------------------------------------------------------------ *)

(* parse subprogram definitions in the context of the evolving program:
   embed them in a skeleton with the same type names *)
let parse_subs src names =
  let wrapped =
    Printf.sprintf
      {|program p is
         type byte is mod 256;
         type word_b is array (0 .. 3) of byte;
         type state is array (0 .. 3) of word_b;
         type block_t is array (0 .. 15) of byte;
         type key_bytes is array (0 .. 31) of byte;
         type sched_t is array (0 .. 59) of word_b;
         type sbox_table is array (0 .. 255) of byte;
         type rcon_t is array (0 .. 9) of word_b;
         type nk_range is range 4 .. 8;
         type nr_range is range 10 .. 14;
         sbox : constant sbox_table := (%s);
         inv_sbox : constant sbox_table := (%s);
         rcon : constant rcon_t := (%s);
         function gf_mul (a : in byte; c : in byte) return byte
         is
         begin
           return a xor c;
         end gf_mul;
         %s
        end p;|}
      (String.concat ", " (List.init 256 (fun i -> string_of_int Aes_reference.sbox.(i))))
      (String.concat ", " (List.init 256 (fun i -> string_of_int Aes_reference.inv_sbox.(i))))
      (String.concat ", "
         (List.init 10 (fun i -> Printf.sprintf "(%d, 0, 0, 0)" Aes_reference.rcon.(i))))
      src
  in
  let prog = Parser.of_string wrapped in
  List.map (Ast.find_sub_exn prog) names

let stage_procs_src =
  {|
  procedure sub_bytes (src : in state; dst : out state)
  is
  begin
    for c in 0 .. 3 loop
      for r in 0 .. 3 loop
        dst (c) (r) := sbox (src (c) (r));
      end loop;
    end loop;
  end sub_bytes;

  procedure inv_sub_bytes (src : in state; dst : out state)
  is
  begin
    for c in 0 .. 3 loop
      for r in 0 .. 3 loop
        dst (c) (r) := inv_sbox (src (c) (r));
      end loop;
    end loop;
  end inv_sub_bytes;

  procedure shift_rows (src : in state; dst : out state)
  is
  begin
    for c in 0 .. 3 loop
      for r in 0 .. 3 loop
        dst (c) (r) := src ((c + r) mod 4) (r);
      end loop;
    end loop;
  end shift_rows;

  procedure inv_shift_rows (src : in state; dst : out state)
  is
  begin
    for c in 0 .. 3 loop
      for r in 0 .. 3 loop
        dst (c) (r) := src (((c - r) + 4) mod 4) (r);
      end loop;
    end loop;
  end inv_shift_rows;

  procedure mix_columns (src : in state; dst : out state)
  is
  begin
    for c in 0 .. 3 loop
      dst (c) (0) := gf_mul (2, src (c) (0)) xor gf_mul (3, src (c) (1)) xor src (c) (2) xor src (c) (3);
      dst (c) (1) := src (c) (0) xor gf_mul (2, src (c) (1)) xor gf_mul (3, src (c) (2)) xor src (c) (3);
      dst (c) (2) := src (c) (0) xor src (c) (1) xor gf_mul (2, src (c) (2)) xor gf_mul (3, src (c) (3));
      dst (c) (3) := gf_mul (3, src (c) (0)) xor src (c) (1) xor src (c) (2) xor gf_mul (2, src (c) (3));
    end loop;
  end mix_columns;

  procedure inv_mix_columns (src : in state; dst : out state)
  is
  begin
    for c in 0 .. 3 loop
      dst (c) (0) := gf_mul (14, src (c) (0)) xor gf_mul (11, src (c) (1)) xor gf_mul (13, src (c) (2)) xor gf_mul (9, src (c) (3));
      dst (c) (1) := gf_mul (9, src (c) (0)) xor gf_mul (14, src (c) (1)) xor gf_mul (11, src (c) (2)) xor gf_mul (13, src (c) (3));
      dst (c) (2) := gf_mul (13, src (c) (0)) xor gf_mul (9, src (c) (1)) xor gf_mul (14, src (c) (2)) xor gf_mul (11, src (c) (3));
      dst (c) (3) := gf_mul (11, src (c) (0)) xor gf_mul (13, src (c) (1)) xor gf_mul (9, src (c) (2)) xor gf_mul (14, src (c) (3));
    end loop;
  end inv_mix_columns;

  procedure add_round_key (src : in state; k0 : in word_b; k1 : in word_b; k2 : in word_b; k3 : in word_b; dst : out state)
  is
  begin
    for r in 0 .. 3 loop
      dst (0) (r) := src (0) (r) xor k0 (r);
    end loop;
    for r in 0 .. 3 loop
      dst (1) (r) := src (1) (r) xor k1 (r);
    end loop;
    for r in 0 .. 3 loop
      dst (2) (r) := src (2) (r) xor k2 (r);
    end loop;
    for r in 0 .. 3 loop
      dst (3) (r) := src (3) (r) xor k3 (r);
    end loop;
  end add_round_key;
|}

let word_helpers_src =
  {|
  function rot_word (w : in word_b) return word_b
  is
  begin
    return (w (1), w (2), w (3), w (0));
  end rot_word;

  function sub_word (w : in word_b) return word_b
  is
  begin
    return (sbox (w (0)), sbox (w (1)), sbox (w (2)), sbox (w (3)));
  end sub_word;

  function xor_word (x : in word_b; y : in word_b) return word_b
  is
  begin
    return (x (0) xor y (0), x (1) xor y (1), x (2) xor y (2), x (3) xor y (3));
  end xor_word;
|}

let inv_mix_word_src =
  {|
  function inv_mix_columns_word (w : in word_b) return word_b
  is
  begin
    return (gf_mul (14, w (0)) xor gf_mul (11, w (1)) xor gf_mul (13, w (2)) xor gf_mul (9, w (3)),
            gf_mul (9, w (0)) xor gf_mul (14, w (1)) xor gf_mul (11, w (2)) xor gf_mul (13, w (3)),
            gf_mul (13, w (0)) xor gf_mul (9, w (1)) xor gf_mul (14, w (2)) xor gf_mul (11, w (3)),
            gf_mul (11, w (0)) xor gf_mul (13, w (1)) xor gf_mul (9, w (2)) xor gf_mul (14, w (3)));
  end inv_mix_columns_word;
|}

let key_expand_body stride total rcon_tail =
  ignore rcon_tail;
  Parser.stmts_of_string
    (Printf.sprintf
       {|
    for i in 0 .. %d loop
      rk (i) := (key (4 * i), key (4 * i + 1), key (4 * i + 2), key (4 * i + 3));
    end loop;
    for i in %d .. %d loop
      if i mod %d = 0 then
        rk (i) := xor_word (rk (i - %d), xor_word (sub_word (rot_word (rk (i - 1))), rcon (i / %d - 1)));
      %s
      else
        rk (i) := xor_word (rk (i - %d), rk (i - 1));
      end if;
    end loop;
|}
       (stride - 1) stride (total - 1) stride stride stride
       (if stride = 8 then
          Printf.sprintf
            "elsif i mod 8 = 4 then rk (i) := xor_word (rk (i - 8), sub_word (rk (i - 1)));"
        else "")
       stride)

(* ------------------------------------------------------------------ *)
(* the blocks                                                          *)
(* ------------------------------------------------------------------ *)

type block = {
  b_index : int;
  b_title : string;
  b_run : H.t -> unit;
}

let block1 h =
  apply h (Refactor.Reroll.reroll ~proc:"encrypt" ~from:4 ~group_len:8 ~count:4 ~var:"r");
  apply h (Refactor.Reroll.reroll ~proc:"decrypt" ~from:4 ~group_len:8 ~count:4 ~var:"r")

let block2 h =
  let plan =
    {
      Refactor.Data_structures.word_type = "word";
      byte_name = "byte";
      vec_name = "word_b";
      array_types =
        [ ("block_t", Refactor.Data_structures.To_byte);
          ("key_bytes", Refactor.Data_structures.To_byte);
          ("sched_t", Refactor.Data_structures.To_vec);
          ("word_table", Refactor.Data_structures.To_vec);
          ("rcon_t", Refactor.Data_structures.To_vec) ];
    }
  in
  apply h (Refactor.Data_structures.word_to_bytes ~plan ())

let block3 h =
  List.iteri
    (fun k (table, replacement) ->
      let helpers = if k = 0 then table_helpers else [] in
      apply h
        (Refactor.Table_reverse.reverse ~table ~index_var:"x"
           ~replacement:(e replacement) ~helpers ()))
    table_replacements

let block4 h =
  apply h
    (Refactor.Rewrite_body.add_decls
       ~decls:[ Dtype ("state", Tarray (0, 3, Tnamed "word_b")) ]
       ~anchor:"key_setup_enc");
  List.iter
    (fun (proc, vars, name) ->
      apply h
        (Refactor.Data_structures.group_vars ~proc ~vars ~array_name:name
           ~elem_type:(Tnamed "word_b") ~array_typ:(Tnamed "state") ()))
    [ ("encrypt", [ "s0"; "s1"; "s2"; "s3" ], "s");
      ("encrypt", [ "t0"; "t1"; "t2"; "t3" ], "t");
      ("decrypt", [ "s0"; "s1"; "s2"; "s3" ], "s");
      ("decrypt", [ "t0"; "t1"; "t2"; "t3" ], "t") ]

let derive_templates prog proc =
  (* round template: first 4 statements of the round loop, abstracted *)
  let loop_body = loop_body_at prog proc 4 in
  let round =
    slice loop_body ~from:0 ~len:4
    |> rename_vars [ ("s", "src"); ("t", "dst") ]
    |> abstract_round_keys
  in
  (* final-round template: statements 11..14 (after pack 0..3, loop 4,
     guards 5..6, last round 7..10) *)
  let final =
    slice (sub_body prog proc) ~from:11 ~len:4
    |> rename_vars [ ("t", "src"); ("s", "dst") ]
    |> abstract_round_keys
  in
  (round, final)

let block5 h =
  let _, prog = H.current h in
  let enc_round, enc_final = derive_templates prog "encrypt" in
  let _, prog = H.current h in
  let dec_round, dec_final = derive_templates prog "decrypt" in
  apply h
    (Refactor.Inline_reverse.extract_procedure ~name:"enc_round" ~params:round_params
       ~template:enc_round ~min_occurrences:3 ());
  apply h
    (Refactor.Inline_reverse.extract_procedure ~name:"enc_final_round"
       ~params:round_params ~template:enc_final ~min_occurrences:1 ());
  apply h
    (Refactor.Inline_reverse.extract_procedure ~name:"dec_round" ~params:round_params
       ~template:dec_round ~min_occurrences:3 ());
  apply h
    (Refactor.Inline_reverse.extract_procedure ~name:"dec_final_round"
       ~params:round_params ~template:dec_final ~min_occurrences:1 ())

let block6 h =
  (* distribute the four packing statements into the key-size conditional *)
  List.iter
    (fun at -> apply h (Refactor.Conditional_motion.move_into ~proc:"key_setup_enc" ~at))
    [ 3; 2; 1; 0 ];
  (* split the three execution paths into procedures, bodies taken from the
     current code *)
  let _, prog = H.current h in
  let branches =
    match sub_body prog "key_setup_enc" with
    | [ If (branches, _) ] -> List.map snd branches
    | _ -> failwith "block6: unexpected key_setup_enc shape"
  in
  let not_nr = function Assign (Lvar "nr", _) -> false | _ -> true in
  let path_proc name body =
    {
      sub_name = name;
      sub_params =
        [ { par_name = "key"; par_mode = Mode_in; par_typ = Tnamed "key_bytes" };
          { par_name = "rk"; par_mode = Mode_out; par_typ = Tnamed "sched_t" } ];
      sub_return = None;
      sub_pre = None;
      sub_post = None;
      sub_locals = [ { v_name = "temp"; v_typ = Tnamed "word_b"; v_init = None } ];
      sub_body = List.filter not_nr body;
    }
  in
  let defs =
    List.map2 path_proc
      [ "key_expand_128"; "key_expand_192"; "key_expand_256" ]
      branches
  in
  apply h (Refactor.Rewrite_body.add_subprograms ~defs ~anchor:"key_setup_enc");
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"key_setup_enc"
       ~new_locals:[]
       ~body:
         (Parser.stmts_of_string
            {|
    if nk = 4 then
      key_expand_128 (key, rk);
      nr := 10;
    elsif nk = 6 then
      key_expand_192 (key, rk);
      nr := 12;
    elsif nk = 8 then
      key_expand_256 (key, rk);
      nr := 14;
    end if;
|})
       ())

let block7 h =
  let word_helpers = parse_subs word_helpers_src [ "rot_word"; "sub_word"; "xor_word" ] in
  apply h
    (Refactor.Rewrite_body.add_subprograms ~defs:word_helpers ~anchor:"key_expand_128");
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"key_expand_128" ~new_locals:[]
       ~body:(key_expand_body 4 44 10) ());
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"key_expand_192" ~new_locals:[]
       ~body:(key_expand_body 6 52 8) ());
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"key_expand_256" ~new_locals:[]
       ~body:(key_expand_body 8 60 7) ())

let block8 h =
  let new_hi = e "(nr - 10) / 2 + 3" in
  let domain = [ ("nr", [ 10; 12; 14 ]) ] in
  apply h
    (Refactor.Loop_forms.absorb_guarded_tail ~proc:"encrypt" ~at:4 ~tail_count:2 ~new_hi
       ~domain);
  apply h
    (Refactor.Loop_forms.absorb_guarded_tail ~proc:"decrypt" ~at:4 ~tail_count:2 ~new_hi
       ~domain)

let block9 h =
  let stages =
    parse_subs stage_procs_src
      [ "sub_bytes"; "inv_sub_bytes"; "shift_rows"; "inv_shift_rows"; "mix_columns";
        "inv_mix_columns"; "add_round_key" ]
  in
  apply h (Refactor.Rewrite_body.add_subprograms ~defs:stages ~anchor:"enc_round");
  let state_locals =
    [ { v_name = "u1"; v_typ = Tnamed "state"; v_init = None };
      { v_name = "u2"; v_typ = Tnamed "state"; v_init = None };
      { v_name = "u3"; v_typ = Tnamed "state"; v_init = None } ]
  in
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"enc_round" ~new_locals:state_locals
       ~body:
         (Parser.stmts_of_string
            {|
    sub_bytes (src, u1);
    shift_rows (u1, u2);
    mix_columns (u2, u3);
    add_round_key (u3, k0, k1, k2, k3, dst);
|})
       ());
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"enc_final_round" ~new_locals:state_locals
       ~body:
         (Parser.stmts_of_string
            {|
    sub_bytes (src, u1);
    shift_rows (u1, u2);
    add_round_key (u2, k0, k1, k2, k3, dst);
|})
       ());
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"dec_round" ~new_locals:state_locals
       ~body:
         (Parser.stmts_of_string
            {|
    inv_shift_rows (src, u1);
    inv_sub_bytes (u1, u2);
    inv_mix_columns (u2, u3);
    add_round_key (u3, k0, k1, k2, k3, dst);
|})
       ());
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"dec_final_round" ~new_locals:state_locals
       ~body:
         (Parser.stmts_of_string
            {|
    inv_shift_rows (src, u1);
    inv_sub_bytes (u1, u2);
    add_round_key (u2, k0, k1, k2, k3, dst);
|})
       ())

let block10 h =
  (* pack statements 0..3 and the 16 unpack statements of both directions *)
  List.iter
    (fun proc ->
      apply h (Refactor.Reroll.reroll ~proc ~from:0 ~group_len:1 ~count:4 ~var:"c");
      (* after packing is rerolled the body is:
         0 pack-loop, 1 round-loop, 2 enc_round, 3 final, 4.. unpack *)
      apply h (Refactor.Reroll.reroll ~proc ~from:4 ~group_len:4 ~count:4 ~var:"c"))
    [ "encrypt"; "decrypt" ]

let block11 h =
  List.iter
    (fun (proc, load, store) ->
      apply h (Refactor.Split_procedure.split ~proc ~from:0 ~len:1 ~new_name:load);
      apply h (Refactor.Split_procedure.split ~proc ~from:4 ~len:1 ~new_name:store))
    [ ("encrypt", "load_block_enc", "store_block_enc");
      ("decrypt", "load_block_dec", "store_block_dec") ]

let block12 h =
  apply h (Refactor.Storage_adjust.remove_unused_decl ~name:"word");
  apply h (Refactor.Storage_adjust.rename_type ~from_name:"word_b" ~to_name:"word");
  apply h (Refactor.Storage_adjust.remove_unused_decl ~name:"word_table")

let block13 h =
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"key_setup_enc" ~new_locals:[]
       ~body:
         (Parser.stmts_of_string
            {|
    nr := nk + 6;
    for i in 0 .. nk - 1 loop
      rk (i) := (key (4 * i), key (4 * i + 1), key (4 * i + 2), key (4 * i + 3));
    end loop;
    for i in nk .. 4 * nr + 3 loop
      if i mod nk = 0 then
        rk (i) := xor_word (rk (i - nk), xor_word (sub_word (rot_word (rk (i - 1))), rcon (i / nk - 1)));
      elsif nk > 6 and (i mod nk) = 4 then
        rk (i) := xor_word (rk (i - nk), sub_word (rk (i - 1)));
      else
        rk (i) := xor_word (rk (i - nk), rk (i - 1));
      end if;
    end loop;
|})
       ());
  apply h (Refactor.Storage_adjust.remove_unused_decl ~name:"key_expand_128");
  apply h (Refactor.Storage_adjust.remove_unused_decl ~name:"key_expand_192");
  apply h (Refactor.Storage_adjust.remove_unused_decl ~name:"key_expand_256");
  apply h (Refactor.Storage_adjust.rename_sub ~from_name:"key_setup_enc" ~to_name:"key_expansion")

(* by block 14 the 4-byte vector type has been renamed word_b -> word *)
let retype_subs renames subs =
  let rec rn = function
    | Tnamed n -> (
        match List.assoc_opt n renames with Some m -> Tnamed m | None -> Tnamed n)
    | Tarray (lo, hi, elt) -> Tarray (lo, hi, rn elt)
    | t -> t
  in
  List.map
    (fun sub ->
      {
        sub with
        sub_params =
          List.map (fun (p : param) -> { p with par_typ = rn p.par_typ }) sub.sub_params;
        sub_locals =
          List.map (fun (v : var_decl) -> { v with v_typ = rn v.v_typ }) sub.sub_locals;
        sub_return = Option.map rn sub.sub_return;
      })
    subs

let block14 h =
  let helper =
    retype_subs [ ("word_b", "word") ] (parse_subs inv_mix_word_src [ "inv_mix_columns_word" ])
  in
  apply h (Refactor.Rewrite_body.add_subprograms ~defs:helper ~anchor:"key_setup_dec");
  apply h
    (Refactor.Rewrite_body.replace_body ~proc:"key_setup_dec"
       ~new_locals:[ { v_name = "temp"; v_typ = Tnamed "word"; v_init = None } ]
       ~body:
         (Parser.stmts_of_string
            {|
    key_expansion (key, nk, rk, nr);
    for r in 0 .. (nr - 1) / 2 loop
      for c in 0 .. 3 loop
        temp := rk (4 * r + c);
        rk (4 * r + c) := rk (4 * (nr - r) + c);
        rk (4 * (nr - r) + c) := temp;
      end loop;
    end loop;
    for r in 1 .. nr - 1 loop
      for c in 0 .. 3 loop
        rk (4 * r + c) := inv_mix_columns_word (rk (4 * r + c));
      end loop;
    end loop;
|})
       ());
  apply h
    (Refactor.Split_procedure.split ~proc:"key_setup_dec" ~from:1 ~len:1
       ~new_name:"invert_key_order");
  apply h
    (Refactor.Split_procedure.split ~proc:"key_setup_dec" ~from:2 ~len:1
       ~new_name:"apply_inv_mix_columns")

let blocks =
  [ { b_index = 1; b_title = "loop rerolling for the major encrypt/decrypt loops";
      b_run = block1 };
    { b_index = 2; b_title = "reversal of word packing";
      b_run = block2 };
    { b_index = 3; b_title = "reversal of table lookups";
      b_run = block3 };
    { b_index = 4; b_title = "packing four words into a state";
      b_run = block4 };
    { b_index = 5; b_title = "reversal of the inlining of the round functions";
      b_run = block5 };
    { b_index = 6; b_title = "revealing the three key-size paths; procedure splitting";
      b_run = block6 };
    { b_index = 7; b_title = "reversal of the inlining of key-expansion helpers";
      b_run = block7 };
    { b_index = 8; b_title = "adjustment of loop forms (guarded rounds absorbed)";
      b_run = block8 };
    { b_index = 9; b_title = "reversal of additional inlined functions (round stages)";
      b_run = block9 };
    { b_index = 10; b_title = "loop rerolling for sequential state updates";
      b_run = block10 };
    { b_index = 11; b_title = "procedure splitting (block load/store)";
      b_run = block11 };
    { b_index = 12; b_title = "adjustment of intermediate storage";
      b_run = block12 };
    { b_index = 13; b_title = "adjustment of loop forms in the key schedule";
      b_run = block13 };
    { b_index = 14; b_title = "decryption key schedule adjustments and splitting";
      b_run = block14 } ]

type snapshot = {
  sn_block : int;       (** 0 = the original optimized program *)
  sn_title : string;
  sn_env : Minispark.Typecheck.env;
  sn_program : Ast.program;
}

(** Run the refactoring through block [upto] (default: all 14), validating
    FIPS-197 vectors after every block (disable with [kat_gate:false] for
    the seeded-defect experiment, where the vectors are not part of the
    Echo process).  With [certify], every step is certified while the
    blocks run ({!Refactor.History.run_certified}); a failing block first
    finishes certifying the steps before it, so a refutation among them
    wins.  A config without entry points gets [encrypt_block] and
    [decrypt_block].  [start] overrides the initial program (defaults to
    the pristine optimized implementation).  Returns the per-block
    snapshots (block 0 first) and the history. *)
let run ?(upto = 14) ?(kat_gate = true) ?certify ?start () =
  let env0, prog0 = match start with Some ep -> ep | None -> Aes_impl.checked () in
  let h = H.create env0 prog0 in
  let snapshots =
    ref [ { sn_block = 0; sn_title = "original optimized implementation";
            sn_env = env0; sn_program = prog0 } ]
  in
  let run_blocks () =
    List.iter
      (fun b ->
        if b.b_index <= upto then begin
          b.b_run h;
          if kat_gate then check_kats h;
          let env, prog = H.current h in
          snapshots :=
            { sn_block = b.b_index; sn_title = b.b_title; sn_env = env; sn_program = prog }
            :: !snapshots
        end)
      blocks
  in
  (match certify with
  | None -> run_blocks ()
  | Some cfg ->
      (* the public entry points certify steps that change the program's
         shape, unless the caller configured its own *)
      let cfg =
        if cfg.Refactor.Certify.cf_entries <> [] then cfg
        else { cfg with cf_entries = [ "encrypt_block"; "decrypt_block" ] }
      in
      H.run_certified cfg h run_blocks);
  (List.rev !snapshots, h)
