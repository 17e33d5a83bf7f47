(** FIPS-197 known-answer tests (Appendix B and C): the external ground
    truth for every artifact of the case study. *)

type vector = {
  name : string;
  size : Aes_reference.key_size;
  key : string;        (** hex *)
  plaintext : string;  (** hex *)
  ciphertext : string; (** hex *)
}

val vectors : vector list

val key_bytes : vector -> int array
val plaintext_bytes : vector -> int array
val ciphertext_bytes : vector -> int array

val run_block :
  Minispark.Typecheck.env -> Minispark.Ast.program ->
  entry:string -> key:int array -> nk:int -> input:int array -> int array
(** Drive [encrypt_block]/[decrypt_block] of a MiniSpark AES program
    through the interpreter. *)

type kat_outcome = {
  ko_vector : string;
  ko_encrypt_ok : bool;
  ko_decrypt_ok : bool;
}

val run_vectors :
  Minispark.Typecheck.env -> Minispark.Ast.program -> kat_outcome list

val all_pass : kat_outcome list -> bool
