(* Known-answer tests from FIPS-197 (Appendix B and Appendix C): the
   external ground truth every artifact in the case study is validated
   against — the OCaml reference, the optimized MiniSpark implementation,
   each refactored version, and the specification-language formalisation. *)

type vector = {
  name : string;
  size : Aes_reference.key_size;
  key : string;        (* hex *)
  plaintext : string;  (* hex *)
  ciphertext : string; (* hex *)
}

let vectors =
  [ { name = "FIPS-197 Appendix B (AES-128)";
      size = Aes_reference.Aes128;
      key = "2b7e151628aed2a6abf7158809cf4f3c";
      plaintext = "3243f6a8885a308d313198a2e0370734";
      ciphertext = "3925841d02dc09fbdc118597196a0b32" };
    { name = "FIPS-197 Appendix C.1 (AES-128)";
      size = Aes_reference.Aes128;
      key = "000102030405060708090a0b0c0d0e0f";
      plaintext = "00112233445566778899aabbccddeeff";
      ciphertext = "69c4e0d86a7b0430d8cdb78070b4c55a" };
    { name = "FIPS-197 Appendix C.2 (AES-192)";
      size = Aes_reference.Aes192;
      key = "000102030405060708090a0b0c0d0e0f1011121314151617";
      plaintext = "00112233445566778899aabbccddeeff";
      ciphertext = "dda97ca4864cdfe06eaf70a0ec0d7191" };
    { name = "FIPS-197 Appendix C.3 (AES-256)";
      size = Aes_reference.Aes256;
      key = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f";
      plaintext = "00112233445566778899aabbccddeeff";
      ciphertext = "8ea2b7ca516745bfeafc49904b496089" } ]

let key_bytes v = Aes_reference.bytes_of_hex v.key
let plaintext_bytes v = Aes_reference.bytes_of_hex v.plaintext
let ciphertext_bytes v = Aes_reference.bytes_of_hex v.ciphertext

(* ------------------------------------------------------------------ *)
(* Driving a MiniSpark AES program through the interpreter             *)
(* ------------------------------------------------------------------ *)

open Minispark

(* marshal a byte array into a MiniSpark array value of the given width
   (padding with zeros: the key array is dimensioned for 256-bit keys) *)
let to_value ~width (bytes : int array) =
  Value.Varray
    (0, Array.init width (fun i -> Value.Vint (if i < Array.length bytes then bytes.(i) else 0)))

let of_value v =
  let _, data = Value.as_array v in
  Array.map Value.as_int data

(** Run [encrypt_block]/[decrypt_block] of a MiniSpark AES program. *)
let run_block env program ~entry ~key ~nk ~input =
  let rt = Interp.make env program in
  match
    Interp.run_procedure rt entry
      [ to_value ~width:32 key; Value.Vint nk; to_value ~width:16 input ]
  with
  | [ out ] -> of_value out
  | _ -> failwith "run_block: unexpected out parameters"

type kat_outcome = {
  ko_vector : string;
  ko_encrypt_ok : bool;
  ko_decrypt_ok : bool;
}

(** Check every FIPS-197 vector (encrypt and decrypt directions) against a
    MiniSpark AES program with the standard entry points. *)
let run_vectors env program : kat_outcome list =
  List.map
    (fun v ->
      let nk = Aes_reference.nk_of v.size in
      let ct =
        run_block env program ~entry:"encrypt_block" ~key:(key_bytes v) ~nk
          ~input:(plaintext_bytes v)
      in
      let pt =
        run_block env program ~entry:"decrypt_block" ~key:(key_bytes v) ~nk
          ~input:(ciphertext_bytes v)
      in
      {
        ko_vector = v.name;
        ko_encrypt_ok = ct = ciphertext_bytes v;
        ko_decrypt_ok = pt = plaintext_bytes v;
      })
    vectors

let all_pass outcomes =
  List.for_all (fun o -> o.ko_encrypt_ok && o.ko_decrypt_ok) outcomes
