(** Reference implementation of FIPS-197 (AES) in OCaml, written from the
    standard's pseudocode: the ground truth that the MiniSpark artifacts
    and the specification-language formalisation are validated against.
    State is column-major: [s.(c).(r)] is the byte in row r, column c. *)

type key_size = Aes128 | Aes192 | Aes256

val nk_of : key_size -> int

(** {1 GF(2^8) arithmetic (§4.2)} *)

val xtime : int -> int
val gf_mul : int -> int -> int
val gf_inv : int -> int
val sbox : int array
val inv_sbox : int array
val rcon : int array

(** {1 Round transformations (§5.1)} *)

type state = int array array

val state_of_block : int array -> state
val block_of_state : state -> int array
val sub_bytes : state -> state
val inv_sub_bytes : state -> state
val shift_rows : state -> state
val inv_shift_rows : state -> state
val mix_column : int array -> int array
val inv_mix_column : int array -> int array
val mix_columns : state -> state
val inv_mix_columns : state -> state
val add_round_key : int array array -> int -> state -> state

(** {1 Key expansion and the ciphers (§5.2, §5.1, §5.3)} *)

val rot_word : int array -> int array
val sub_word : int array -> int array
val xor_word : int array -> int array -> int array
val key_expansion : key_size -> int array -> int array array
val cipher : key_size -> int array array -> int array -> int array
val inv_cipher : key_size -> int array array -> int array -> int array
val encrypt : key_size -> key:int array -> plaintext:int array -> int array
val decrypt : key_size -> key:int array -> ciphertext:int array -> int array

(** {1 Hex helpers for test vectors} *)

val bytes_of_hex : string -> int array
val hex_of_bytes : int array -> string
