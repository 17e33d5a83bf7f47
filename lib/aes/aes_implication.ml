(* The implication theorem for the AES case study (§6.2.4): the
   specification extracted from the final refactored program implies the
   original FIPS-197 specification, organised as lemmas over the matched
   architecture (one lemma per matched element, §4.1).

   Byte-level elements are decided exhaustively over their finite domains;
   state/key-level elements are checked on deterministic samples plus the
   FIPS-197 known-answer vectors.  The decryption round lemma carries the
   equivalent-inverse-cipher argument (the implementation applies the round
   key after InvMixColumns, against transformed round keys). *)

module V = Specl.Seval
module I = Echo.Implication

let spec_env () = V.make ~fuel:200_000_000 Aes_spec.theory

(* ---------------- value builders ---------------- *)

let byte rng = V.Vint (rng () land 0xff)
let word rng = V.Varr (0, Array.init 4 (fun _ -> byte rng))
let state rng = V.Varr (0, Array.init 4 (fun _ -> word rng))
let block rng = V.Varr (0, Array.init 16 (fun _ -> byte rng))
let key32 rng = V.Varr (0, Array.init 32 (fun _ -> byte rng))
let sched rng = V.Varr (0, Array.init 60 (fun _ -> word rng))

let all_bytes = List.init 256 (fun n -> [ V.Vint n ])
let byte_pairs =
  List.concat_map (fun a -> List.init 16 (fun b -> [ V.Vint a; V.Vint (b * 17) ])) (List.init 256 Fun.id)

let word_of_bytes bs = V.Varr (0, Array.map (fun b -> V.Vint b) bs)

(* ---------------- synonym dictionary for the match ratio -------------- *)

(* naming drift between the FIPS-197 formalisation and the implementation,
   accepted as direct counterparts on inspection (§6.2.2) *)
let synonyms =
  [ ("block", "block_t");
    ("key_t", "key_bytes");
    ("sched", "sched_t");
    ("cipher", "encrypt");
    ("inv_cipher", "decrypt");
    ("block_of_state", "store_block_enc") ]

let match_ratio ~extracted =
  Specl.Match_ratio.compare ~synonyms ~original:Aes_spec.theory ~extracted ()

(* ---------------- lemmas ---------------- *)

let lemmas ~(extracted : Specl.Sast.theory) : I.lemma list =
  let ext_env () = V.make ~fuel:200_000_000 extracted in
  let sapply name args = V.apply (spec_env ()) name args in
  let eapply name args = V.apply (ext_env ()) name args in
  let open Specl.Sast in
  (* a table's entries: the table is fetched once per lemma and side, and
     the evaluator indexes it *)
  let index_table env name =
    let table = lazy (V.eval (env ()) [] (Svar name)) in
    fun i -> V.eval (env ()) [ ("t", Lazy.force table) ] (Sindex (Svar "t", Sint_lit i))
  in
  let table_lemma name =
    let lhs = index_table spec_env name and rhs = index_table ext_env name in
    I.exhaustive ~name:(name ^ "_table") ~original:name ~extracted:name
      ~domain:(List.init 256 (fun i -> [ V.Vint i ]))
      ~lhs:(fun p -> match p with [ V.Vint i ] -> lhs i | _ -> assert false)
      ~rhs:(fun p -> match p with [ V.Vint i ] -> rhs i | _ -> assert false)
      ()
  in
  let fn1_exhaustive name =
    I.exhaustive ~name:(name ^ "_lemma") ~original:name ~extracted:name ~domain:all_bytes
      ~lhs:(fun p -> sapply name p)
      ~rhs:(fun p -> eapply name p)
      ()
  in
  let same_sampled ?(count = 48) ~gen name =
    I.sampled ~name:(name ^ "_lemma") ~original:name ~extracted:name ~gen ~count
      ~lhs:(fun p -> sapply name p)
      ~rhs:(fun p -> eapply name p)
      ()
  in
  let state_gen rng = [ state rng ] in
  [ (* tables of the standard *)
    table_lemma "sbox";
    table_lemma "inv_sbox";
    (* rcon: the implementation packs the round constant into byte 0 *)
    (let lhs = index_table spec_env "rcon" and rhs = index_table ext_env "rcon" in
     I.exhaustive ~name:"rcon_lemma" ~original:"rcon" ~extracted:"rcon"
       ~domain:(List.init 10 (fun i -> [ V.Vint i ]))
       ~lhs:(fun p ->
         match p with
         | [ V.Vint i ] -> (
             match lhs i with
             | V.Vint r -> word_of_bytes [| r; 0; 0; 0 |]
             | v -> v)
         | _ -> assert false)
       ~rhs:(fun p -> match p with [ V.Vint i ] -> rhs i | _ -> assert false)
       ());
    (* GF(2^8) arithmetic *)
    fn1_exhaustive "xtime";
    I.exhaustive ~name:"gf_mul_lemma" ~original:"gf_mul" ~extracted:"gf_mul"
      ~domain:byte_pairs
      ~lhs:(fun p -> sapply "gf_mul" p)
      ~rhs:(fun p -> eapply "gf_mul" p)
      ();
    (* key-schedule word helpers *)
    same_sampled ~gen:(fun rng -> [ word rng ]) "rot_word";
    same_sampled ~gen:(fun rng -> [ word rng ]) "sub_word";
    same_sampled ~gen:(fun rng -> [ word rng; word rng ]) "xor_word";
    (* state transformations *)
    same_sampled ~gen:state_gen "sub_bytes";
    same_sampled ~gen:state_gen "inv_sub_bytes";
    same_sampled ~gen:state_gen "shift_rows";
    same_sampled ~gen:state_gen "inv_shift_rows";
    same_sampled ~gen:state_gen "mix_columns";
    same_sampled ~gen:state_gen "inv_mix_columns";
    (* add_round_key: the implementation passes the four round-key words *)
    I.sampled ~name:"add_round_key_lemma" ~original:"add_round_key"
      ~extracted:"add_round_key" ~count:48
      ~gen:(fun rng -> [ state rng; sched rng; V.Vint (rng () mod 15) ])
      ~lhs:(fun p -> sapply "add_round_key" p)
      ~rhs:(fun p ->
        match p with
        | [ s; V.Varr (_, w); V.Vint round ] ->
            eapply "add_round_key"
              [ s; w.((4 * round)); w.((4 * round) + 1); w.((4 * round) + 2);
                w.((4 * round) + 3) ]
        | _ -> assert false)
      ();
    (* inv_mix_columns_word against the specification's column operation *)
    I.sampled ~name:"inv_mix_word_lemma" ~original:"inv_mix_columns"
      ~extracted:"inv_mix_columns_word" ~count:64
      ~gen:(fun rng -> [ word rng ])
      ~lhs:(fun p ->
        match p with
        | [ w ] -> (
            let s = V.Varr (0, [| w; w; w; w |]) in
            match sapply "inv_mix_columns" [ s ] with
            | V.Varr (_, cols) -> cols.(0)
            | v -> v)
        | _ -> assert false)
      ~rhs:(fun p -> eapply "inv_mix_columns_word" p)
      ();
    (* the composed rounds against the specification composition *)
    I.sampled ~name:"enc_round_lemma" ~original:"round composition"
      ~extracted:"enc_round" ~count:48
      ~gen:(fun rng -> [ state rng; word rng; word rng; word rng; word rng ])
      ~lhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] ->
            let w =
              V.Varr (0, Array.init 60 (fun i -> [| k0; k1; k2; k3 |].(min i 3)))
            in
            sapply "add_round_key"
              [ sapply "mix_columns" [ sapply "shift_rows" [ sapply "sub_bytes" [ s ] ] ];
                w; V.Vint 0 ]
        | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] -> eapply "enc_round" [ s; k0; k1; k2; k3 ]
        | _ -> assert false)
      ();
    I.sampled ~name:"enc_final_round_lemma" ~original:"final round composition"
      ~extracted:"enc_final_round" ~count:48
      ~gen:(fun rng -> [ state rng; word rng; word rng; word rng; word rng ])
      ~lhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] ->
            let w = V.Varr (0, Array.init 60 (fun i -> [| k0; k1; k2; k3 |].(min i 3))) in
            sapply "add_round_key"
              [ sapply "shift_rows" [ sapply "sub_bytes" [ s ] ]; w; V.Vint 0 ]
        | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] -> eapply "enc_final_round" [ s; k0; k1; k2; k3 ]
        | _ -> assert false)
      ();
    (* equivalent inverse cipher: the implementation's decryption round
       with InvMixColumns-transformed keys equals the specification's *)
    I.sampled ~name:"dec_round_lemma" ~original:"inverse round composition"
      ~extracted:"dec_round" ~count:48
      ~gen:(fun rng -> [ state rng; word rng; word rng; word rng; word rng ])
      ~lhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] ->
            let w = V.Varr (0, Array.init 60 (fun i -> [| k0; k1; k2; k3 |].(min i 3))) in
            sapply "inv_mix_columns"
              [ sapply "add_round_key"
                  [ sapply "inv_sub_bytes" [ sapply "inv_shift_rows" [ s ] ]; w; V.Vint 0 ] ]
        | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] ->
            (* the implementation expects transformed keys *)
            let tk k = eapply "inv_mix_columns_word" [ k ] in
            eapply "dec_round" [ s; tk k0; tk k1; tk k2; tk k3 ]
        | _ -> assert false)
      ();
    I.sampled ~name:"dec_final_round_lemma" ~original:"inverse final round"
      ~extracted:"dec_final_round" ~count:48
      ~gen:(fun rng -> [ state rng; word rng; word rng; word rng; word rng ])
      ~lhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] ->
            let w = V.Varr (0, Array.init 60 (fun i -> [| k0; k1; k2; k3 |].(min i 3))) in
            sapply "add_round_key"
              [ sapply "inv_sub_bytes" [ sapply "inv_shift_rows" [ s ] ]; w; V.Vint 0 ]
        | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ s; k0; k1; k2; k3 ] -> eapply "dec_final_round" [ s; k0; k1; k2; k3 ]
        | _ -> assert false)
      ();
    (* block marshalling *)
    I.sampled ~name:"load_block_lemma" ~original:"state_of_block + add_round_key"
      ~extracted:"load_block_enc" ~count:48
      ~gen:(fun rng -> [ block rng; sched rng ])
      ~lhs:(fun p ->
        match p with
        | [ b; w ] ->
            sapply "add_round_key" [ sapply "state_of_block" [ b ]; w; V.Vint 0 ]
        | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ b; w ] ->
            (* in-out s starts at the interpreter default (zero state) *)
            let zero_state =
              V.Varr (0, Array.init 4 (fun _ -> V.Varr (0, Array.make 4 (V.Vint 0))))
            in
            eapply "load_block_enc" [ b; w; zero_state ]
        | _ -> assert false)
      ();
    I.sampled ~name:"store_block_lemma" ~original:"block_of_state"
      ~extracted:"store_block_enc" ~count:48
      ~gen:(fun rng -> [ state rng ])
      ~lhs:(fun p -> sapply "block_of_state" p)
      ~rhs:(fun p ->
        match p with
        | [ s ] ->
            let zero_block = V.Varr (0, Array.make 16 (V.Vint 0)) in
            eapply "store_block_enc" [ zero_block; s ]
        | _ -> assert false)
      ();
    (* the key schedule *)
    I.sampled ~name:"key_expansion_lemma" ~original:"key_expansion"
      ~extracted:"key_expansion" ~count:24
      ~gen:(fun rng ->
        let nk = [| 4; 6; 8 |].(rng () mod 3) in
        [ key32 rng; V.Vint nk ])
      ~lhs:(fun p -> sapply "key_expansion" p)
      ~rhs:(fun p ->
        match eapply "key_expansion" p with
        | V.Vtup [ rk; _nr ] -> rk
        | v -> v)
      ();
    I.sampled ~name:"key_expansion_nr_lemma" ~original:"nr = nk + 6"
      ~extracted:"key_expansion" ~count:12
      ~gen:(fun rng ->
        let nk = [| 4; 6; 8 |].(rng () mod 3) in
        [ key32 rng; V.Vint nk ])
      ~lhs:(fun p ->
        match p with [ _; V.Vint nk ] -> V.Vint (nk + 6) | _ -> assert false)
      ~rhs:(fun p ->
        match eapply "key_expansion" p with
        | V.Vtup [ _; nr ] -> nr
        | v -> v)
      ();
    (* the ciphers over arbitrary schedules *)
    I.sampled ~name:"cipher_lemma" ~original:"cipher" ~extracted:"encrypt" ~count:12
      ~gen:(fun rng ->
        let nr = [| 10; 12; 14 |].(rng () mod 3) in
        [ sched rng; V.Vint nr; block rng ])
      ~lhs:(fun p -> sapply "cipher" p)
      ~rhs:(fun p -> eapply "encrypt" p)
      ();
    I.sampled ~name:"inv_cipher_lemma" ~original:"inv_cipher" ~extracted:"decrypt"
      ~count:12
      ~gen:(fun rng ->
        let nr = [| 10; 12; 14 |].(rng () mod 3) in
        (* decrypt expects InvMixColumns-transformed, order-reversed keys;
           over arbitrary w the lemma uses the transformation explicitly *)
        [ sched rng; V.Vint nr; block rng ])
      ~lhs:(fun p ->
        match p with
        | [ (V.Varr _ as w); V.Vint nr; b ] -> sapply "inv_cipher" [ w; V.Vint nr; b ]
        | _ -> assert false)
      ~rhs:(fun p ->
        match p with
        | [ V.Varr (_, w); V.Vint nr; b ] ->
            (* feed decrypt the transformed schedule *)
            let w' =
              Array.init 60 (fun i ->
                  if i <= 4 * nr + 3 then
                    let r = i / 4 and c = i mod 4 in
                    w.((4 * (nr - r)) + c)
                  else w.(i))
            in
            let w'' =
              Array.mapi
                (fun i wi ->
                  let r = i / 4 in
                  if r >= 1 && r <= nr - 1 && i <= 4 * nr + 3 then
                    V.apply (ext_env ()) "inv_mix_columns_word" [ wi ]
                  else wi)
                w'
            in
            eapply "decrypt" [ V.Varr (0, w''); V.Vint nr; b ]
        | _ -> assert false)
      ();
    (* top level, including the FIPS-197 vectors *)
    I.exhaustive ~name:"encrypt_kat_lemma" ~original:"encrypt" ~extracted:"encrypt_block"
      ~domain:
        (List.map
           (fun v ->
             [ V.Varr (0, Array.init 32 (fun i ->
                   let k = Aes_kat.key_bytes v in
                   V.Vint (if i < Array.length k then k.(i) else 0)));
               V.Vint (Aes_reference.nk_of v.Aes_kat.size);
               V.Varr (0, Array.map (fun b -> V.Vint b) (Aes_kat.plaintext_bytes v)) ])
           Aes_kat.vectors)
      ~lhs:(fun p -> sapply "encrypt" p)
      ~rhs:(fun p -> eapply "encrypt_block" p)
      ();
    I.sampled ~name:"encrypt_block_lemma" ~original:"encrypt" ~extracted:"encrypt_block"
      ~count:9
      ~gen:(fun rng ->
        let nk = [| 4; 6; 8 |].(rng () mod 3) in
        [ key32 rng; V.Vint nk; block rng ])
      ~lhs:(fun p -> sapply "encrypt" p)
      ~rhs:(fun p -> eapply "encrypt_block" p)
      ();
    I.sampled ~name:"decrypt_block_lemma" ~original:"decrypt" ~extracted:"decrypt_block"
      ~count:9
      ~gen:(fun rng ->
        let nk = [| 4; 6; 8 |].(rng () mod 3) in
        [ key32 rng; V.Vint nk; block rng ])
      ~lhs:(fun p -> sapply "decrypt" p)
      ~rhs:(fun p -> eapply "decrypt_block" p)
      () ]

let run ~extracted = I.run (lemmas ~extracted)
