(* Validation of the AES case-study artifacts: the OCaml reference against
   FIPS-197 vectors, and the optimized MiniSpark implementation against the
   reference. *)

module R = Aes.Aes_reference

let test_reference_vectors () =
  List.iter
    (fun v ->
      let key = Aes.Aes_kat.key_bytes v in
      let pt = Aes.Aes_kat.plaintext_bytes v in
      let ct = Aes.Aes_kat.ciphertext_bytes v in
      let got = R.encrypt v.Aes.Aes_kat.size ~key ~plaintext:pt in
      Alcotest.(check string)
        (v.Aes.Aes_kat.name ^ " encrypt")
        (R.hex_of_bytes ct) (R.hex_of_bytes got);
      let back = R.decrypt v.Aes.Aes_kat.size ~key ~ciphertext:ct in
      Alcotest.(check string)
        (v.Aes.Aes_kat.name ^ " decrypt")
        (R.hex_of_bytes pt) (R.hex_of_bytes back))
    Aes.Aes_kat.vectors

let test_reference_roundtrip_random () =
  let rng = ref 0x12345 in
  let next () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 8) land 0xff
  in
  List.iter
    (fun size ->
      for _ = 1 to 10 do
        let key = Array.init (4 * R.nk_of size) (fun _ -> next ()) in
        let pt = Array.init 16 (fun _ -> next ()) in
        let ct = R.encrypt size ~key ~plaintext:pt in
        let back = R.decrypt size ~key ~ciphertext:ct in
        Alcotest.(check string) "roundtrip" (R.hex_of_bytes pt) (R.hex_of_bytes back)
      done)
    [ R.Aes128; R.Aes192; R.Aes256 ]

let test_sbox_involution () =
  for b = 0 to 255 do
    Alcotest.(check int) "inv_sbox . sbox = id" b R.inv_sbox.(R.sbox.(b))
  done

let test_gf_field_properties () =
  (* spot-check field laws on a deterministic sample *)
  for a = 0 to 255 do
    Alcotest.(check int) "mul 1 identity" a (R.gf_mul a 1);
    Alcotest.(check int) "mul 0 annihilates" 0 (R.gf_mul a 0);
    if a <> 0 then
      Alcotest.(check int) "inverse" 1 (R.gf_mul a (R.gf_inv a))
  done;
  for a = 0 to 50 do
    for b = 0 to 50 do
      Alcotest.(check int) "commutative" (R.gf_mul a b) (R.gf_mul b a)
    done
  done

let test_mix_columns_inverse () =
  let rng = ref 7 in
  let next () =
    rng := (!rng * 48271) mod 0x7fffffff;
    !rng land 0xff
  in
  for _ = 1 to 100 do
    let col = Array.init 4 (fun _ -> next ()) in
    let back = R.inv_mix_column (R.mix_column col) in
    Alcotest.(check (array int)) "inv . mix = id" col back
  done

let test_optimized_program_typechecks () =
  let _env, prog = Aes.Aes_impl.checked () in
  Alcotest.(check string) "program name" "aes_fast" prog.Minispark.Ast.prog_name;
  Alcotest.(check int) "six subprograms" 6
    (List.length (Minispark.Ast.subprograms prog))

let test_optimized_program_kats () =
  let env, prog = Aes.Aes_impl.checked () in
  let outcomes = Aes.Aes_kat.run_vectors env prog in
  List.iter
    (fun o ->
      Alcotest.(check bool) (o.Aes.Aes_kat.ko_vector ^ " encrypt") true o.Aes.Aes_kat.ko_encrypt_ok;
      Alcotest.(check bool) (o.Aes.Aes_kat.ko_vector ^ " decrypt") true o.Aes.Aes_kat.ko_decrypt_ok)
    outcomes

let test_optimized_vs_reference_random () =
  let env, prog = Aes.Aes_impl.checked () in
  let rng = ref 99 in
  let next () =
    rng := (!rng * 1103515245 + 12345) land 0x3fffffff;
    (!rng lsr 7) land 0xff
  in
  List.iter
    (fun size ->
      for _ = 1 to 3 do
        let nk = R.nk_of size in
        let key = Array.init (4 * nk) (fun _ -> next ()) in
        let pt = Array.init 16 (fun _ -> next ()) in
        let expected = R.encrypt size ~key ~plaintext:pt in
        let got = Aes.Aes_kat.run_block env prog ~entry:"encrypt_block" ~key ~nk ~input:pt in
        Alcotest.(check string) "optimized = reference"
          (R.hex_of_bytes expected) (R.hex_of_bytes got)
      done)
    [ R.Aes128; R.Aes192; R.Aes256 ]

let test_program_roundtrips_through_parser () =
  let _, prog = Aes.Aes_impl.checked () in
  let printed = Minispark.Pretty.program_to_string prog in
  let reparsed = Minispark.Parser.of_string printed in
  let _, reparsed = Minispark.Typecheck.check reparsed in
  Alcotest.(check bool) "round-trip identical" true (reparsed = prog)

let test_program_line_count () =
  let _, prog = Aes.Aes_impl.checked () in
  let loc = Minispark.Pretty.line_count prog in
  (* the ANSI C original is 1258 lines; the MiniSpark translation should be
     the same order of magnitude *)
  Alcotest.(check bool) (Printf.sprintf "plausible size (%d)" loc) true
    (loc > 400 && loc < 3000)

let suites =
  [ ( "aes:reference",
      [ Alcotest.test_case "FIPS-197 vectors" `Quick test_reference_vectors;
        Alcotest.test_case "random round-trips" `Quick test_reference_roundtrip_random;
        Alcotest.test_case "sbox involution" `Quick test_sbox_involution;
        Alcotest.test_case "GF(2^8) field laws" `Quick test_gf_field_properties;
        Alcotest.test_case "mix-columns inverse" `Quick test_mix_columns_inverse ] );
    ( "aes:optimized",
      [ Alcotest.test_case "type-checks" `Quick test_optimized_program_typechecks;
        Alcotest.test_case "FIPS-197 KATs" `Quick test_optimized_program_kats;
        Alcotest.test_case "matches reference on random inputs" `Quick
          test_optimized_vs_reference_random;
        Alcotest.test_case "parser round-trip" `Quick test_program_roundtrips_through_parser;
        Alcotest.test_case "plausible line count" `Quick test_program_line_count ] ) ]
